"""Config validation, report round-trips, determinism, CLI surface."""

import csv
import json
import os
import random
import subprocess
import sys
import types
from importlib import import_module

import numpy as np
import pytest

from theta_secant import __version__, cli
from theta_secant.cli import main, run_scenario
from theta_secant.curves import build_abel_data, default_corpus, default_corpus_path
from theta_secant.errors import ConfigError
from theta_secant.reports import (CSV_FILES, PARAMETERS, SCENARIOS, CheckRecord, Report,
                                  ScenarioConfig)
from theta_secant.rng import Xoshiro256
from theta_secant.scenarios import RS_KERNELS, jacobian_fay_data, resolve_curve
from theta_secant.theta import blas_core, dispatch_class


# the scenarios that write CSV files into --csv-dir; the others refuse it
CSV_WRITERS = tuple(CSV_FILES)


@pytest.fixture
def run(capsys):
    """main(argv) as (exit code, the JSON object it printed, its stderr)."""
    def run(argv):
        rc = main(argv)
        captured = capsys.readouterr()
        return rc, json.loads(captured.out), captured.err
    return run


@pytest.fixture
def entered(monkeypatch):
    """The names cli imports while the test runs: the runner modules."""
    names = []
    monkeypatch.setattr(cli, "import_module",
                        lambda name: names.append(name) or import_module(name))
    return names


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

    def test_inputs_the_scenario_ignores_are_refused(self, run, entered, tmp_path):
        """The config refuses a curve input, and the command line --csv-dir,
        which no config holds, where the scenario would ignore them."""
        with pytest.raises(ConfigError, match="^theta-selftest takes no --curve or --corpus$"):
            ScenarioConfig("theta-selftest", corpus="corpus.json")
        with pytest.raises(TypeError, match="csv_dir"):
            ScenarioConfig("rs-dynamics", csv_dir="out")
        assert run(["controls", "--csv-dir", str(tmp_path)])[:2] == (
            2, {"error": "ConfigError", "message": "controls takes no --csv-dir"})
        assert entered == []
        assert cli._csv_paths({"command": "rs-dynamics", "csv_dir": str(tmp_path)}) == [
            tmp_path / "rs_trajectory.csv", tmp_path / "zero_path.csv"]

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

    @pytest.mark.parametrize("scenario", CSV_WRITERS)
    def test_each_csv_writer_attaches_one_table_per_file(self, scenario):
        """A runner hands the report one table per name of CSV_FILES, and
        writes none itself; the tables stay out of the JSON."""
        report = run_scenario(ScenarioConfig(scenario, window={"grid": 21} if
                                             scenario == "rs-dynamics" else {}))
        assert len(report.tables) == len(CSV_FILES[scenario])
        assert all(callable(table.csv_rows) for table in report.tables)
        assert "tables" not in report.to_dict()

    def test_reports_name_their_numerics(self, run):
        """Every report's environment names the package version, the seed,
        the numpy version and dispatch class, and the OpenBLAS core that
        computed it."""
        rc, out, _ = run(["rs", "simulate", "--n", "2", "--t-end", "0.01", "--h", "1e-3"])
        assert rc == 0 and out["environment"] == {
            "version": __version__, "seed": 7, "numpy": np.__version__,
            "numpy_dispatch": dispatch_class(), "blas_core": blas_core()}


class TestDeterminism:
    def test_reports_byte_identical_modulo_timing(self):
        cfg = ScenarioConfig(scenario="theta-selftest", seed=11,
                             window={"samples": 40})
        a = run_scenario(cfg).to_dict()
        b = run_scenario(ScenarioConfig(scenario="theta-selftest", seed=11,
                                        window={"samples": 40})).to_dict()
        a.pop("timing"), b.pop("timing")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_scenario_twice_at_seed_7_with_csv(self, run, tmp_path, scenario):
        """A scenario at seed 7, with CSV export where it writes CSV files,
        passes twice in this process and once in a fresh interpreter, with
        byte-identical reports (timing removed) and CSV files: neither state
        left by a run nor anything that differs between processes reaches
        the output."""
        runs = []
        for name in ("here", "again", "fresh"):
            out = tmp_path / name
            out.mkdir()
            argv = [scenario, "--seed", "7",
                    *(["--csv-dir", str(out)] if scenario in CSV_WRITERS else [])]
            rc, report, err = (fresh if name == "fresh" else run)(argv)
            assert rc == 0 and err == "" and report.pop("timing")
            runs.append((report, {p.name: p.read_bytes() for p in out.iterdir()}))
        assert runs[0] == runs[1] == runs[2]


class TestMain:
    def test_selftest_exit_zero(self, run):
        rc, out, _ = run(["theta-selftest", "--seed", "3", "--window", "samples=30"])
        assert rc == 0 and out["pass"] is True

    def test_check_alias(self, run):
        """A scenario has one spelling, its name: `check <scenario>` is a
        usage error."""
        rc, out, err = run(["check", "theta-selftest", "--seed", "3"])
        assert rc == 2 and err == "" and out["error"] == "ConfigError"
        assert "invalid choice: 'check'" in out["message"]

    @pytest.mark.parametrize("argv, message", [
        (["bdhe", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["bdhe", "--bogus"], "unrecognized arguments: --bogus"),
        (["rs", "simulate", "--n", "2"], "the following arguments are required"),
        ([], "a command is required"),
    ], ids=["bad-int", "unknown-option", "missing-option", "no-command"])
    def test_usage_error_is_a_json_error(self, run, argv, message):
        """A usage error takes the one output path of every error: a JSON
        ConfigError on stdout, exit 2, nothing on stderr."""
        rc, error, err = run(argv)
        assert rc == 2 and err == ""
        assert error["error"] == "ConfigError" and error["message"].startswith(message)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: theta-secant")

    def test_corpus_hash_reference(self, run):
        """--corpus alone chooses a corpus file; --curve is an id in it, so
        the path#id and corpus#id spellings name no record."""
        rc, out, _ = run(["bdhe", "--corpus", str(default_corpus_path()), "--curve", "x5m1",
                          "--seed", "7", "--window", "m_size=4", "--window", "n_size=4"])
        assert rc == 0 and out["curve"] == "x5m1"
        fit = [c for c in out["checks"] if c["name"] == "fit_residual"][0]
        assert fit["residual"] <= 1e-8
        for ref in ("corpus#x5m1", "#x5m1", f"{default_corpus_path()}#x5m1"):
            rc, out, _ = run(["bdhe", "--curve", ref])
            assert rc == 2 and out["error"] == "ConfigError"
            assert out["message"].startswith(f"curve {ref!r} not found in corpus")

    def test_fay_trisecant_reads_the_fits_vectors(self, lattice_passes):
        """The collinearity comes from the vectors each fit returns: at
        seed 7 the scenario is its four fits, one binned pass each."""
        run_scenario(ScenarioConfig(scenario="fay-trisecant", seed=7))
        assert lattice_passes == [(3 * 16, True)] * 4

    def test_probe_depth_capped(self, run, entered, lattice_passes):
        """A probe depth past divisor.MAX_PROBE_DEPTH exits 2 with a JSON
        error from the config, before any runner is entered; at the cap the
        scenario runs, one probe pass of 2K + 1 points per sample, all
        samples in that pass."""
        rc, out, _ = run(["divisor-identities", "--window", "probe_depth=1001"])
        assert rc == 2 and out["error"] == "ConfigError"
        assert lattice_passes == [] and entered == []
        rc, out, _ = run(["divisor-identities", "--window", "probe_depth=1000",
                          "--window", "samples=2", "--window", "g1_pairs=1"])
        assert out["scenario"] == "divisor-identities"
        assert rc in (0, 1) and lattice_passes.count((2 * 2001, False)) == 1

    def test_invalid_curve_validation_exit(self, run, tmp_path):
        corpus = tmp_path / "bad.json"
        corpus.write_text('[{"id": "flat", "kind": "hyperelliptic2", "poly": [-1, 0, 0, 0, 0, 2]}]')
        rc, out, _ = run(["bdhe", "--corpus", str(corpus), "--curve", "flat"])
        assert rc == 2
        assert out["error"] == "ValidationError"
        assert out["message"] == "poly must be monic (leading coefficient 1)"

    def test_unknown_curve_exit(self, run):
        rc, out, _ = run(["bdhe", "--curve", "nosuch"])
        assert rc == 2 and out["error"] == "ConfigError"

    @pytest.mark.parametrize("scenario", ["theta-selftest", "rs-dynamics"])
    @pytest.mark.parametrize("option", [["--curve", "nosuch"], ["--curve", "x5m1"],
                                        ["--corpus", "corpus.json"]])
    def test_curveless_scenario_rejects_curve(self, run, entered, scenario, option):
        """The config refuses the curve, so no runner is entered."""
        rc, out, _ = run([scenario, *option])
        assert rc == 2 and out["error"] == "ConfigError"
        assert out["message"] == f"{scenario} takes no --curve or --corpus"
        assert entered == []

    @pytest.mark.parametrize("directory", ["existing", "missing"])
    @pytest.mark.parametrize("scenario", sorted(set(SCENARIOS) - set(CSV_WRITERS)))
    def test_scenario_without_csv_rejects_csv_dir(self, run, entered, tmp_path,
                                                  scenario, directory):
        """A scenario that writes no CSV file refuses --csv-dir, existing or
        not, with one JSON error and no runner entered, and writes nothing."""
        (tmp_path / "existing").mkdir()
        rc, out, err = run([scenario, "--csv-dir", str(tmp_path / directory)])
        assert rc == 2 and err == ""
        assert out == {"error": "ConfigError",
                       "message": f"{scenario} takes no --csv-dir"}
        assert entered == []
        assert [p.name for p in tmp_path.rglob("*")] == ["existing"]

    def test_bad_corpus_record_fails_only_its_lookup(self, run, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps([
            {"id": "x5m1", "kind": "hyperelliptic2", "poly": [-1, 0, 0, 0, 0, 1]},
            {"id": "double", "kind": "hyperelliptic2", "poly": [2, -4, 2, 1, -2, 1]},
        ]))
        rc, out, _ = run(["toda", "--corpus", str(path), "--curve", "double"])
        assert rc == 2 and out["error"] == "DegenerateCurve"
        ident, spec = resolve_curve(ScenarioConfig("toda", curve="x5m1", corpus=str(path)))
        assert ident == "x5m1" and spec.poly[0] == -1

    @pytest.mark.parametrize("scenario", ["fay-trisecant", "divisor-identities",
                                          "toda", "bdhe", "wave-series", "controls"])
    def test_duplicate_curve_id_is_a_validation_error(self, run, tmp_path, scenario):
        """An id that two records claim, explicitly or as the default
        curve{i} of a record without one, names no record: its lookup
        exits 2 naming the id and the records, with nothing on stderr, and
        every other id still resolves to its own record."""
        x5m1 = {"kind": "hyperelliptic2", "poly": [-1, 0, 0, 0, 0, 1]}
        path = tmp_path / "dup.json"
        path.write_text(json.dumps([
            {"id": "c", **x5m1},
            {"id": "c", "kind": "hyperelliptic2", "poly": [[-1.1, 0.05], -0.2, 0, 0, 0, 1]},
            x5m1,
            {"id": "curve2", "kind": "hyperelliptic2", "poly": [-1, 0.5, 0, 0, 0, 1]},
            {"id": "x5m1", **x5m1},
        ]))
        for ident, records in (("c", "0, 1"), ("curve2", "2, 3")):
            rc, out, err = run([scenario, "--corpus", str(path), "--curve", ident])
            assert rc == 2 and err == ""
            assert out == {
                "error": "ValidationError",
                "message": f"curve id {ident!r} is claimed by records {records}"}
        ident, spec = resolve_curve(ScenarioConfig(scenario, curve="x5m1", corpus=str(path)))
        assert ident == "x5m1" and spec.poly[1] == 0

    @pytest.mark.parametrize("scenario", ["fay-trisecant", "divisor-identities",
                                          "toda", "bdhe", "wave-series", "controls"])
    def test_genus1_curve_config_exit(self, run, tmp_path, scenario):
        """Curve records are genus 2: a genus-1 record in a --corpus file is
        an unknown kind."""
        path = tmp_path / "g1.json"
        path.write_text(json.dumps([OUTSIDE_CORPUS["g1i"]]))
        rc, out, _ = run([scenario, "--corpus", str(path), "--curve", "g1i"])
        assert rc == 2 and out["error"] == "ValidationError"
        assert out["message"] == "unknown curve kind 'genus1'"

    def test_bad_tol_exit(self, run):
        rc, out, _ = run(["bdhe", "--tol", "fit_residual=0.9"])
        assert rc == 2 and out["error"] == "ConfigError"

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        rc = main(["theta-selftest", "--seed", "3", "--window", "samples=30",
                   "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        assert json.loads(out.read_text())["scenario"] == "theta-selftest"

    def test_numerical_error_exit_three(self, run, monkeypatch):
        # an absurdly low radius cap forces RadiusCap inside the pipeline
        monkeypatch.setenv("THETA_SECANT_CAP", "2")
        rc, out, _ = run(["theta-selftest", "--seed", "3", "--window", "samples=10"])
        assert rc == 3 and out["error"] == "RadiusCap"

    @pytest.mark.parametrize("cap", ["abc", "1.5", "0", "-1"])
    def test_malformed_cap_config_exit(self, run, monkeypatch, cap):
        # a cap that is not an integer of at least 1 is a usage error, not a
        # traceback (exit 1) or a RadiusCap on every evaluation (exit 3)
        monkeypatch.setenv("THETA_SECANT_CAP", cap)
        rc, out, err = run(["fay-trisecant", "--seed", "7"])
        assert rc == 2 and out["error"] == "ConfigError"
        assert "THETA_SECANT_CAP" in out["message"] and err == ""

    @pytest.mark.parametrize("argv", [
        ["rs-dynamics"], ["wave-series"],
        ["rs", "simulate", "--n", "3", "--t-end", "0.2", "--h", "1e-3",
         "--kernel", "elliptic"],
    ], ids=["rs-dynamics", "wave-series", "rs-simulate-elliptic"])
    def test_pole_dynamics_radius_cap_exit_three(self, run, monkeypatch, argv):
        # the tau sections, the elliptic kernel and the semi-discrete system
        # look their radius up at their first pass, where the cap applies
        monkeypatch.setenv("THETA_SECANT_CAP", "2")
        rc, out, _ = run(argv)
        assert rc == 3 and out["error"] == "RadiusCap"
        assert out["message"].startswith("radius 5 exceeds cap 2")

    def test_arithmetic_error_exit_three(self, run, monkeypatch):
        # a value beyond float range raises OverflowError (from math.exp or
        # a float conversion); the CLI reports it like any numerical failure
        def overflowing(config):
            raise OverflowError("logscale 812.5 too large for complex")

        monkeypatch.setattr("theta_secant.scenarios.toda.run_toda", overflowing)
        rc, out, _ = run(["toda"])
        assert rc == 3
        assert out == {"error": "OverflowError",
                       "message": "logscale 812.5 too large for complex"}

    def test_rs_simulate_free_particle(self, tmp_path, run):
        csv_path = tmp_path / "traj.csv"
        rc, out, _ = run(["rs", "simulate", "--n", "1", "--t-end", "1", "--h", "1e-3",
                          "--csv", str(csv_path)])
        assert rc == 0
        assert out["checks"][0]["name"] == "free_particle_linear"
        assert out["checks"][0]["residual"] <= 1e-12
        assert csv_path.exists()
        assert len(csv_path.read_text().splitlines()) == 1002

    @pytest.mark.parametrize("kernel", list(RS_KERNELS))
    def test_rs_simulate_three_particles(self, run, kernel):
        rc, out, _ = run(["rs", "simulate", "--n", "3", "--t-end", "0.2", "--h", "1e-3",
                          "--kernel", kernel])
        assert rc == 0
        assert out["checks"][0]["name"] == "momentum_conservation"
        assert set(out["timing"]) == {"wall_s"} and out["timing"]["wall_s"] >= 0

    @pytest.mark.parametrize("argv, code", [
        *[pytest.param(["--n", n, "--t-end", "0.2", "--h", "1e-3", "--kernel", kernel],
                       0, id=f"{kernel}-n{n}")
          for kernel in RS_KERNELS for n in ("1", "2", "10")],
        # coarse steps blow the three particles up, and the elliptic
        # clearance's exponent passes exp's range: a collision, not an
        # overflow warning
        *[pytest.param(["--n", "3", "--seed", "3", "--t-end", "1", "--h", h,
                        "--kernel", "elliptic"], 3, id=f"elliptic-overflow-h{h}")
          for h in ("0.25", "0.5")],
    ])
    def test_rs_simulate_flows_keep_the_exit_contract(self, run, argv, code):
        """Flows of 1, 2 and 10 particles with every kernel pass; a step
        that no clearance can measure exits 3 with one Collision object."""
        rc, out, err = run(["rs", "simulate", *argv])
        assert rc == code and err == ""
        assert out.get("error") == (None if code == 0 else "Collision")

    @pytest.mark.parametrize("argv", [
        ["theta-selftest", "--window", "samples=10"],
        ["rs", "simulate", "--n", "1", "--t-end", "0.01", "--h", "1e-3"],
    ], ids=["scenario", "rs-simulate"])
    def test_wall_time_counts_the_runner_import(self, run, monkeypatch, argv):
        """timing.wall_s starts before the runner's module is imported, so
        every run's wall time counts the same imports."""
        imported = []
        monkeypatch.setattr(cli, "import_module",
                            lambda name: imported.append(name) or import_module(name))
        clock = types.SimpleNamespace(perf_counter=lambda: 5.0 * len(imported))
        monkeypatch.setattr(cli, "time", clock)
        rc, out, _ = run(argv)
        assert rc == 0 and out["timing"] == {"wall_s": 5.0}

    def test_rs_simulate_step_over_a_pole_exit_three(self, run):
        # with seed 6 two of the 20 particles start near a pole of the
        # period-2 kernel, and a step carries particle 1 across it
        rc, out, _ = run(["rs", "simulate", "--n", "20", "--seed", "6", "--t-end", "0.2",
                          "--h", "1e-3", "--kernel", "trig"])
        assert rc == 3 and out["error"] == "Collision"
        assert out["message"].startswith("step 186 put particle 1 at distance 2 ")

    def test_rs_simulate_coarse_step_exit_zero(self, run):
        # one step of h = 1 moves a particle 0.58, along its velocity: no
        # separation nears a pole, and momentum is conserved
        rc, out, _ = run(["rs", "simulate", "--n", "2", "--t-end", "1", "--h", "1",
                          "--kernel", "rational"])
        assert rc == 0 and out["checks"][0]["residual"] <= 1e-12

    @pytest.mark.parametrize("scenario, headers", [
        ("toda", {"toda_fields.csv": "x,t,re_u,im_u,re_v,im_v,re_psi_mantissa,"
                                     "im_psi_mantissa,psi_logscale"}),
        ("bdhe", {"bdhe_fields.csv": "m,n,re_u,im_u,re_v,im_v,re_psi_mantissa,"
                                     "im_psi_mantissa,psi_logscale"}),
        ("rs-dynamics", {"rs_trajectory.csv": "t,i,re_x,im_x,re_xdot,im_xdot",
                         "zero_path.csv": "t,re_eta,im_eta,re_v0,im_v0"}),
    ])
    def test_csv_dir_export(self, tmp_path, run, scenario, headers):
        assert run([scenario, "--seed", "7", "--csv-dir", str(tmp_path)])[0] == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(headers)
        for name, head in headers.items():
            assert (tmp_path / name).read_text().splitlines()[0] == head

    @pytest.mark.parametrize("scenario, window, name, indices", [
        ("bdhe", ["m_size=3"], "bdhe_fields.csv", {-1, 0, 1}),
        ("bdhe", ["m_size=2", "n_size=5"], "bdhe_fields.csv", {-1, 0}),
        ("bdhe", ["m_size=1", "n_size=4"], "bdhe_fields.csv", {0}),
        ("toda", ["x_size=5"], "toda_fields.csv", {-2, -1, 0, 1, 2}),
        ("toda", ["x_size=8"], "toda_fields.csv", set(range(-4, 4))),
    ])
    def test_a_window_of_n_points_is_centered(self, tmp_path, run, scenario,
                                              window, name, indices):
        """A window size n tabulates the n integers from -(n // 2), odd or even."""
        argv = [scenario, "--seed", "7", "--csv-dir", str(tmp_path)]
        rc = run(argv + [a for w in window for a in ("--window", w)])[0]
        with open(tmp_path / name) as fh:
            first = {int(row[0]) for row in list(csv.reader(fh))[1:]}
        assert rc == 0 and first == indices

    @pytest.mark.parametrize("grid", [5, 6, 8, 11, 21, 51, 101, 201, 401])
    def test_rs_dynamics_tracks_its_zeros_on_coarse_to_fine_grids(self, run, grid):
        rc, out, _ = run(["rs-dynamics", "--window", f"grid={grid}"])
        assert rc == 0 and out["pass"] is True

    @pytest.mark.parametrize("argv", [
        ["bdhe", "--window", "m_size=1", "--window", "n_size=1"],
        ["toda", "--window", "x_size=1", "--window", "t_size=1"],
    ])
    def test_one_point_window_is_a_validation_error(self, run, argv):
        """One window point leaves one refit row for the two constants."""
        rc, out, _ = run(argv + ["--seed", "7"])
        assert rc == 2 and out["error"] == "ValidationError"
        assert out["message"] == "a one-point window gives one row for two constants"


@pytest.mark.parametrize("scenario, curve, seed, name, key, weakest", [
    # the weakest witness read 4.85e-3 here, below the 1e-2 threshold
    ("divisor-identities", "x5m1", 85, "cm7_random_control",
     "cm7_random_control_max_of_mins", 4.85e-3),
    ("divisor-identities", "x5pert", 4, "cm7d_decomposable_control",
     "cm7d_decomposable_control_min", 1.77e-3),
    ("controls", "x5m1", 13, "decomposable_identity", "decomposable_identity_min", None),
])
def test_negative_controls_take_the_strongest_witness(run, scenario, curve, seed,
                                                       name, key, weakest):
    rc, out, _ = run([scenario, "--curve", curve, "--seed", str(seed)])
    check = next(c for c in out["checks"] if c["name"] == name)
    assert rc == 0 and check["pass"] and check["residual"] >= 1e-2
    assert out["extra"][key] < 1e-2 <= check["residual"]
    if weakest is not None:
        assert out["extra"][key] == pytest.approx(weakest, rel=1e-2)


@pytest.mark.parametrize("curve", ["x5m1", "x5pert"])
@pytest.mark.parametrize("scenario", ["fay-trisecant", "toda", "bdhe",
                                      "divisor-identities", "controls"])
def test_curve_scenarios_pass_at_seeds_1_to_20_and_85(run, scenario, curve):
    for seed in [*range(1, 21), 85]:
        rc, out, _ = run([scenario, "--curve", curve, "--seed", str(seed)])
        assert rc == 0, f"seed {seed}: {out}"


CLI = [sys.executable, "-W", "error::RuntimeWarning", "-m", "theta_secant.cli"]


def fresh(argv, env=None):
    """The command line argv in a fresh interpreter, numpy's warnings as
    errors: (exit code, the JSON object it printed, its stderr)."""
    proc = subprocess.run([*CLI, *argv], capture_output=True, text=True,
                          env={**os.environ, **(env or {})})
    return proc.returncode, json.loads(proc.stdout), proc.stderr


def closed_stdout(argv, read=0, env=None):
    """(exit code, stderr bytes) of the command line argv in a fresh
    interpreter whose reader closes stdout after read bytes."""
    proc = subprocess.Popen([*CLI, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, **(env or {})})
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(), err


def test_console_script_entry_point():
    rc, out, _ = fresh(["theta-selftest", "--seed", "4", "--window", "samples=20"])
    assert rc == 0 and out["pass"] is True


@pytest.mark.parametrize("read, argv", [
    (read, argv) for argv in (["theta-selftest", "--seed", "4", "--window", "samples=20"],
                              ["rs-dynamics", "--seed", "7"]) for read in (0, 10)
], ids=["0", "10", "rs-dynamics-0", "rs-dynamics-10"])
def test_closed_stdout_exits_two_silently(read, argv):
    """A reader that has closed stdout before the report is written makes
    the run exit 2 with nothing on stderr.  One that closes after 10 bytes
    races the write: the report fits the pipe buffer, so the run exits 0 if
    its write lands first and 2 if the close does, never 1 or with a
    traceback."""
    code, err = closed_stdout(argv, read)
    assert code in ((0, 2) if read else (2,)) and err == b""


@pytest.mark.parametrize("argv,env,code,error", [
    (["bdhe", "--curve", "nope"], {}, 2, "ConfigError"),
    (["theta-selftest", "--seed", "3", "--window", "samples=10"],
     {"THETA_SECANT_CAP": "2"}, 3, "RadiusCap"),
    (["fay-trisecant", "--seed", "7"], {"THETA_SECANT_CAP": "abc"}, 2, "ConfigError"),
    (["bdhe", "--seed", "x"], {}, 2, "ConfigError"),
], ids=["unknown-curve", "radius-cap", "malformed-cap", "usage-error"])
def test_error_to_closed_stdout_exits_two_silently(argv, env, code, error):
    """An error takes the report's one output path: to an open stdout it is
    one JSON object with exit 2 (bad input) or 3 (numerical failure), and
    to a stdout closed before it is written it exits 2 with nothing on
    stderr, never 1 or with a traceback."""
    rc, out, err = fresh(argv, env)
    assert rc == code and err == "" and out["error"] == error
    assert closed_stdout(argv, env=env) == (2, b"")


def python_c(script: str) -> str:
    """The last line that `python -c script` printed; it must exit 0."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


FAY_VERDICT = ("import sys\n"
               "from theta_secant.cli import run_scenario\n"
               "from theta_secant.reports import ScenarioConfig\n"
               "assert run_scenario(ScenarioConfig('fay-trisecant', curve='x5m1')).passed\n")


def test_curve_runs_import_neither_argparse_nor_numpy_polynomial():
    """run_scenario on a curve reads the frozen quadrature rules, and only
    the command line needs argparse."""
    assert python_c(FAY_VERDICT + "print(sorted({'argparse', 'gettext', 'numpy.polynomial'}"
                                  " & set(sys.modules)))") == "[]"


def test_a_verdict_loads_only_its_scenario_module():
    """run_scenario imports the runner module of the scenario it runs and
    none of the other seven, so a verdict compiles only its own runner."""
    assert python_c(FAY_VERDICT + "print(sorted(m for m in sys.modules"
                                  " if m.startswith('theta_secant.scenarios.')))"
                    ) == "['theta_secant.scenarios.fay_trisecant']"


def test_python_m_cli_loads_cli_once():
    """`python -m theta_secant.cli` runs the module as __main__ and no
    runner imports it back, so cli is not loaded a second time as
    theta_secant.cli."""
    assert json.loads(python_c(
        "import json, runpy, sys\n"
        "sys.argv = ['theta_secant.cli', 'fay-trisecant', '--seed', '7']\n"
        "try:\n"
        "    runpy.run_module('theta_secant.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code, 'theta_secant.cli' in sys.modules,\n"
        "                  'theta_secant.scenarios.fay_trisecant' in sys.modules]))")
    ) == [0, False, True]


def test_the_theta_module_imports_plainly():
    """The package root re-exports nothing, so no function hides the name
    of the theta module."""
    import theta_secant.theta as m
    assert isinstance(m, types.ModuleType) and m.__name__ == "theta_secant.theta"


@pytest.mark.parametrize("argv", [["bdhe", "--seed", "x"], ["--help"],
                                  ["theta-selftest", "--curve", "x5m1"],
                                  ["controls", "--csv-dir", "."],
                                  ["toda", "--window", "x_size=65"]],
                         ids=["usage-error", "help", "refused-curve", "refused-csv-dir",
                              "window-out-of-range"])
def test_the_command_line_loads_without_numpy(argv):
    """Importing cli loads neither numpy nor the theta core, so a usage
    error, --help or an input the config refuses exits without them."""
    assert python_c("import sys\n"
                    "from theta_secant.cli import main\n"
                    "heavy = {'numpy', 'theta_secant.theta'}\n"
                    "loaded = sorted(heavy & set(sys.modules))\n"
                    "try:\n"
                    f"    main({argv!r})\n"
                    "except SystemExit:\n"
                    "    pass\n"
                    "print(loaded, sorted(heavy & set(sys.modules)))") == "[] []"


def small_quintic(tmp_path, seed: int) -> list:
    """fay-trisecant's arguments for a corpus file of one small quintic, id
    p{seed}: roots 0.02 * (random point of the unit square) from
    random.Random(seed)."""
    rng = random.Random(seed)
    poly = np.poly([0.02 * complex(rng.random(), rng.random()) for _ in range(5)])
    path = tmp_path / "small.json"
    path.write_text(json.dumps([{"id": f"p{seed}", "kind": "hyperelliptic2",
                                 "poly": [[c.real, c.imag] for c in poly[::-1]]}]))
    return ["fay-trisecant", "--corpus", str(path), "--curve", f"p{seed}"]


def test_valid_curve_with_bad_periods_exits_three(run, tmp_path):
    """A valid quintic whose computed period matrix fails its symmetry
    check is a numerical failure (exit 3), not invalid input (exit 2):
    the small quintic of seed 2."""
    rc, out, _ = run(small_quintic(tmp_path, 2))
    assert rc == 3 and out["error"] == "BadPeriods"
    assert out["message"].startswith("period matrix asymmetric")


@pytest.mark.parametrize("seed", range(8))
def test_small_quintics_exit_zero_or_three(run, tmp_path, seed):
    """A small valid quintic passes or fails numerically, with one JSON
    object and nothing on stderr: never exit 1 or 2, or a traceback."""
    rc, out, err = run(small_quintic(tmp_path, seed))
    assert rc in (0, 3) and err == "" and isinstance(out, dict)


@pytest.mark.parametrize("ident,seed", [("x5m1", 897), ("x5pert", 456),
                                        ("x5pert", 481)])
def test_seeded_points_clear_of_cuts(ident, seed):
    # these seeds once drew a point within CUT_CLEARANCE of a cut, from
    # which no integration path can be routed
    data = build_abel_data(default_corpus()[ident])
    U, V, A, pts = jacobian_fay_data(data, Xoshiro256(seed))
    assert len(pts) == 4 and np.all(np.isfinite(A))


# records outside the package corpus, each run from a --corpus file of its
# own: the two genus-1 records the package corpus once held, a malformed
# one, and one with an infinite coefficient (json.dumps writes Infinity,
# which json.load reads back)
OUTSIDE_CORPUS = {
    "g1i": {"id": "g1i", "kind": "genus1", "tau": [0.0, 1.0]},
    "g1rho": {"id": "g1rho", "kind": "genus1", "tau": [0.31, 1.17]},
    "malformed#bad": {"id": "bad", "kind": "hyperelliptic2",
                      "poly": [[1.0, "x"], 0, 0, 0, 0, 1]},
    "infinite#inf": {"id": "inf", "kind": "hyperelliptic2",
                     "poly": [float("inf"), 0, 0, 0, 0, 1]},
    "huge#big": {"id": "big", "kind": "hyperelliptic2",
                 "poly": [0, 0, 0, 0, 1e300, 1]},
}


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("curve", sorted(default_corpus()) + sorted(OUTSIDE_CORPUS))
def test_every_scenario_and_corpus_entry_keeps_the_exit_contract(
        run, tmp_path, scenario, curve):
    """Each run exits 0 (pass), 1 (a check failed), 2 (bad input) or 3
    (numerical failure), and prints one JSON object, a report (indented
    over many lines) or an error, and nothing on stderr.  An infinite
    coefficient, or one so large that the degeneracy check would overflow,
    is invalid input."""
    argv = [scenario, "--curve", curve]
    if curve in OUTSIDE_CORPUS:
        path = tmp_path / "outside.json"
        path.write_text(json.dumps([OUTSIDE_CORPUS[curve]]))
        argv = [scenario, "--corpus", str(path), "--curve", OUTSIDE_CORPUS[curve]["id"]]
    rc, out, err = run(argv)
    assert rc in (0, 1, 2, 3) and err == ""
    assert ("error" in out) == (rc in (2, 3))
    if curve in ("infinite#inf", "huge#big"):
        curveless = scenario in ("theta-selftest", "rs-dynamics")
        assert rc == 2
        assert out["error"] == ("ConfigError" if curveless else "ValidationError")


@pytest.mark.parametrize("argv", [
    ["divisor-identities", "--window", "samples=0"],
    ["divisor-identities", "--window", "samples=abc"],
    ["divisor-identities", "--window", "probe_depth=-1"],
    ["controls", "--window", "trials=0"],
    ["rs", "simulate", "--n", "0", "--t-end", "1", "--h", "1e-3"],
    ["theta-selftest", "--window", "sampels=5"],
    ["theta-selftest", "--tol", "evennes=1e-3"],
    ["theta-selftest", "--curve", ""],
    ["toda", "--corpus", ""],
    ["toda", "--csv-dir", ""],
    ["rs-dynamics", "--out", ""],
    ["rs", "simulate", "--n", "1", "--t-end", "0.01", "--h", "1e-3", "--csv", ""],
    ["rs", "simulate", "--n", "1", "--t-end", "0.01", "--h", "1e-3", "--out", ""],
    # an output file path that names a directory cannot be written
    ["rs-dynamics", "--out", "{tmp}"],
    ["rs", "simulate", "--n", "1", "--t-end", "0.01", "--h", "1e-3", "--csv", "{tmp}"],
    ["rs", "simulate", "--n", "1", "--t-end", "0.01", "--h", "1e-3", "--out", "{tmp}"],
])
def test_empty_windows_and_particle_sets_are_config_errors(run, entered, tmp_path, argv):
    """A window or particle count that leaves nothing to check, a name the
    scenario does not read, or an empty option value is a ConfigError, and
    an --out or --csv that names a directory an IsADirectoryError: each is
    rejected (exit 2, one JSON object, nothing on stderr) before any runner
    is entered, not passed vacuously, ignored or left to crash."""
    rc, out, err = run([a.format(tmp=tmp_path) for a in argv])
    assert rc == 2 and err == "" and entered == []
    assert out["error"] == ("IsADirectoryError" if "{tmp}" in argv else "ConfigError")
    assert list(tmp_path.iterdir()) == []


RS_SHORT = ["rs", "simulate", "--n", "2", "--t-end", "0.01", "--h", "1e-3"]


@pytest.mark.parametrize("argv, message", [
    (RS_SHORT + ["--csv", "outs/x", "--out", "outs/x"], "--csv and --out name one file, outs/x"),
    (["toda", "--seed", "7", "--csv-dir", "outs", "--out", "outs/toda_fields.csv"],
     "--csv-dir and --out name one file, outs/toda_fields.csv"),
    (RS_SHORT + ["--csv", "outs/x", "--out", "./outs/x"],
     "--csv and --out name one file, ./outs/x"),
    (["rs-dynamics", "--csv-dir", "outs/", "--out", "outs/../outs/zero_path.csv"],
     "--csv-dir and --out name one file, outs/../outs/zero_path.csv"),
], ids=["rs-simulate", "toda", "rs-simulate-dot-slash", "rs-dynamics-parent-dir"])
def test_two_outputs_naming_one_file_are_refused(run, entered, tmp_path, monkeypatch,
                                                 argv, message):
    """Two outputs that resolve to one file, however spelled, are a
    ConfigError (exit 2, one JSON object, nothing on stderr) before any
    runner is entered, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outs").mkdir()
    rc, out, err = run(argv)
    assert rc == 2 and err == "" and entered == []
    assert out == {"error": "ConfigError", "message": message}
    assert list((tmp_path / "outs").iterdir()) == []


def test_a_csv_file_naming_a_directory_is_refused_before_any_runner(run, entered, tmp_path):
    """A file of --csv-dir that names a directory is an IsADirectoryError
    before any runner is entered, so no other CSV file is written."""
    (tmp_path / "zero_path.csv").mkdir()
    rc, out, err = run(["rs-dynamics", "--csv-dir", str(tmp_path)])
    assert rc == 2 and err == "" and entered == []
    assert out == {"error": "IsADirectoryError",
                   "message": f"[Errno 21] Is a directory: '{tmp_path / 'zero_path.csv'}'"}
    assert [p.name for p in tmp_path.iterdir()] == ["zero_path.csv"]


WINDOWS = [(scenario, name, *bounds) for scenario, params in PARAMETERS.items()
           for name, bounds in params["window"].items()]


@pytest.mark.parametrize("scenario, name, default, low, high", WINDOWS)
def test_every_window_default_lies_in_its_range(scenario, name, default, low, high):
    assert low <= default <= high
    assert ScenarioConfig(scenario).win(name) == default


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("scenario, name, default, low, high", WINDOWS)
def test_a_window_outside_its_range_is_refused_before_any_runner(
        run, entered, scenario, name, default, low, high, side):
    value = low - 1 if side == "below" else high + 1
    rc, out, err = run([scenario, "--window", f"{name}={value}"])
    assert rc == 2 and err == "" and entered == []
    assert out == {"error": "ConfigError",
                   "message": f"window {name}={value} is outside {low}..{high}"}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_scenario_passes_with_its_windows_at_their_highs(run, scenario):
    """The highs of PARAMETERS run and pass, each in under 3 s on a 2-core
    box: the divisor-identities probe, one pass of 50 x 2001 points, included."""
    highs = [f"{name}={high}" for name, (_, _, high) in PARAMETERS[scenario]["window"].items()]
    rc, out, err = run([scenario, *(a for w in highs for a in ("--window", w))])
    assert rc == 0 and err == "" and out["pass"] is True


def test_the_window_highs_are_the_library_limits():
    """The highs that a library guard also enforces equal its limit; the
    config checks them without loading numpy, so it cannot import them."""
    from theta_secant.divisor import MAX_PROBE_DEPTH
    from theta_secant.lattices import MAX_WINDOW
    highs = {(s, name): high for s, name, _, _, high in WINDOWS}
    assert highs["divisor-identities", "probe_depth"] == MAX_PROBE_DEPTH
    assert {highs["toda", "x_size"], highs["toda", "t_size"], highs["bdhe", "m_size"],
            highs["bdhe", "n_size"]} == {MAX_WINDOW}


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
def test_non_finite_rs_steps_are_validation_errors(run, entered, tmp_path, argv):
    """An RS run with a non-finite, empty or unbounded step count or a step
    that does not divide --t-end, a corpus that cannot be read or is no
    JSON array, and an output file in a missing directory each exit 2 with a
    JSON error, not a traceback, a vacuous pass, a hang or a run that ends
    off --t-end.  A missing output directory is found before any runner is
    entered."""
    (tmp_path / "latin1.json").write_bytes('[{"id": "\xe9"}]'.encode("latin-1"))
    (tmp_path / "object.json").write_text('{"x5m1": {"kind": "hyperelliptic2"}}')
    rc, out, _ = run([a.format(tmp=tmp_path) for a in argv])
    writes = {"--out", "--csv", "--csv-dir"} & set(argv)
    assert rc == 2
    assert out["error"] == ("FileNotFoundError" if writes else "ValidationError")
    if writes:
        assert entered == []
