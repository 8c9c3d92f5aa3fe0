import csv
import filecmp
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import valuefield
from valuefield import cosmology
from valuefield import scaled_numbers as sn
from valuefield.cli import DEFAULT_CONFIGS, load_config, main, validate_config
from valuefield.errors import ConfigInvalid
from valuefield.scenarios import (SCENARIOS, Param, _cosmology_consistency, _scenario,
                                  parse_params, run_scenario)


def parses_as_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def write_config(tmp_path, scenario, extra=None, name="run.cfg"):
    lines = ["[scenario]", f"name = {scenario}", "", f"[{scenario}]"]
    entries = dict(DEFAULT_CONFIGS[scenario])
    entries.update(extra or {})
    lines += [f"{k} = {v}" for k, v in entries.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestValidate:
    def test_default_configs_valid(self, tmp_path):
        for scenario in SCENARIOS:
            cfg = load_config(write_config(tmp_path, scenario, name=f"{scenario}.cfg"))
            assert validate_config(cfg) == []

    def test_missing_scenario_name(self):
        assert validate_config({}) == ["missing key scenario.name"]

    def test_unknown_scenario(self):
        diags = validate_config({"scenario": {"name": "warp-drive"}})
        assert len(diags) == 1 and "warp-drive" in diags[0]

    def test_flatness_violation_names_keys(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "cosmology", {"omega_v": "0.6"}))
        diags = validate_config(cfg)
        assert any("flatness" in d for d in diags)

    @pytest.mark.parametrize("key", ["omega_m", "omega_r", "omega_v"])
    def test_a_nan_density_fails_the_flatness_check(self, key):
        # the config parser refuses NaN first; the check itself must fail on it too
        values, diags = parse_params("cosmology", {})
        assert diags == []
        values[key] = math.nan
        assert _cosmology_consistency(values) == [
            "cosmology.omega_m+omega_r+omega_v: flatness violated, sum = nan (needs 1)"]

    def test_negative_h0(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "cosmology", {"h0_kms_mpc": "-70"}))
        diags = validate_config(cfg)
        assert any("h0_kms_mpc" in d and "positive" in d for d in diags)

    def test_unparseable_value(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "schrodinger", {"steps": "many"}))
        diags = validate_config(cfg)
        assert any("schrodinger.steps" in d for d in diags)

    def test_default_section_is_rejected_not_merged(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[DEFAULT]\neps = 1e-9\n\n[scenario]\nname = bound-check\n")
        diags = validate_config(load_config(path))
        assert len(diags) == 1 and diags[0].startswith("DEFAULT: unknown section")

    def test_percent_sign_is_literal(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[scenario]\nname = bound-check\n\n[output]\ndir = 50%out\n")
        cfg = load_config(path)
        assert cfg["output"]["dir"] == "50%out" and validate_config(cfg) == []

    def test_field_calculus_k_bounded_by_identity_points(self, tmp_path):
        # the quadrature interval is narrow here; the transport between the
        # identity checks' points in [-1, 1] is what overflows first
        for k, ok in (("354", True), ("-354", True), ("355", False), ("-355", False)):
            cfg = load_config(write_config(tmp_path, "field-calculus",
                                           {"k": k, "sigma": "0.01"}))
            diags = validate_config(cfg)
            assert (diags == []) == ok
            assert all(d.startswith("field-calculus.k: ") for d in diags)

    def test_geodesic_c_bounded_by_the_monitor_square(self, tmp_path):
        # the drift monitor squares u^0 = c / sqrt(1 - beta^2) as a Python float
        for c, beta, ok in (("1.3407807929942596e154", "0", True),
                            ("1.3407807929942597e154", "0", False),
                            ("1.27e154", "0.3", True), ("1.3e154", "0.3", False),
                            ("1e300", "0.3", False)):
            cfg = load_config(write_config(tmp_path, "geodesic", {"c": c, "beta": beta}))
            diags = validate_config(cfg)
            assert (diags == []) == ok
            assert all(d.startswith("geodesic.c: u0^2 overflows") for d in diags)

    def test_unknown_key(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "bound-check", {"volume": "12"}))
        diags = validate_config(cfg)
        assert any("bound-check.volume" in d and "unknown" in d for d in diags)

    def test_geodesic_alpha_const_is_an_unknown_key(self, tmp_path, capsys):
        # a constant alpha changes no output, so the scenario takes none
        cfg = write_config(tmp_path, "geodesic")
        assert main(["validate", str(cfg), "--set", "geodesic.alpha_const=0.4"]) == 2
        assert capsys.readouterr().out.splitlines() == ["geodesic.alpha_const: unknown key"]


_INT_KEYS = ("arithmetic-check.seed", "arithmetic-check.cases", "field-calculus.n",
             "geodesic.steps", "schrodinger.n", "schrodinger.steps")


class TestExitCodes:
    def test_run_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bound-check")
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_run_check_failure_exits_1(self, tmp_path, capsys):
        # an impossible detectability threshold makes the check fail
        cfg = write_config(tmp_path, "bound-check", {"eps": "1e-30"})
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_schrodinger_default_passes(self, tmp_path):
        cfg = write_config(tmp_path, "schrodinger")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_schrodinger_coarse_grid_fails_the_spreading_check(self, tmp_path, capsys):
        # the norm checks hold on any grid; the packet's width does not
        cfg = write_config(tmp_path, "schrodinger")
        code = main(["run", str(cfg), "--out", str(tmp_path / "out"),
                     "--set", "schrodinger.n=16"])
        assert code == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if "[FAIL]" in line]
        assert len(failed) == 1 and "free_spreading_variance" in failed[0]

    def test_inverse_transport_weight_fails_the_tilted_expectation_row(self, tmp_path, capsys,
                                                                       monkeypatch):
        # alpha negated on every batch weights <y> by e^{-alpha}; alpha(x_ref) is 0 either way
        rows = valuefield.field.AnalyticField._alpha_rows
        monkeypatch.setattr(valuefield.field.AnalyticField, "_alpha_rows",
                            lambda self, r: -rows(self, r))
        cfg = write_config(tmp_path, "schrodinger")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if "[FAIL]" in line]
        assert len(failed) == 1 and "position_expectation_alpha_ky" in failed[0]

    @pytest.mark.parametrize("mutate, row", [
        (lambda mp: mp.setitem(cosmology._SEGMENT_SLOPES, "radiation", 0.55),
         "radiation_friedmann_rel_residual"),
        (lambda mp: mp.setitem(cosmology._SEGMENT_SLOPES, "matter", 0.7),
         "matter_friedmann_rel_residual"),
        (lambda mp: mp.setattr(cosmology, "vacuum_rate",
                               lambda p, rate=cosmology.vacuum_rate: 1.01 * rate(p)),
         "vacuum_friedmann_rel_residual"),
    ], ids=["radiation-slope", "matter-slope", "vacuum-rate"])
    def test_wrong_era_profile_fails_its_friedmann_row(self, tmp_path, capsys,
                                                       monkeypatch, mutate, row):
        # each era row checks the package's own profile, so a wrong exponent
        # or vacuum rate fails it and only it
        mutate(monkeypatch)
        cfg = write_config(tmp_path, "cosmology")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if "[FAIL]" in line]
        assert len(failed) == 1 and row in failed[0]

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cosmology", {"omega_v": "0.6"})
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "flatness" in capsys.readouterr().err

    def test_validate_exit_codes(self, tmp_path):
        good = write_config(tmp_path, "arithmetic-check", name="good.cfg")
        bad = write_config(tmp_path, "cosmology", {"h0_kms_mpc": "-1"}, name="bad.cfg")
        assert main(["validate", str(good)]) == 0
        assert main(["validate", str(bad)]) == 2

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "absent.cfg")])
        assert code == 2
        assert "io error" in capsys.readouterr().err

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"[scenario]\nname = bound-check\n# \xff\xfe\n")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot parse")

    @pytest.mark.parametrize("scenario, override, code", [
        ("geodesic", "geodesc.steps=0", 2),            # misspelt section
        ("bound-check", "scenario.nmae=x", 2),         # misspelt key
        ("geodesic", "geodesic.c=-1", 2),
        ("schrodinger", "schrodinger.a0=nan", 2),
        ("cosmology", "cosmology.h0_kms_mpc=inf", 2),
        ("cosmology", "cosmology.s_rm_kyr=-1", 2),
        ("bound-check", "bound-check.window_s=1e30", 2),
        ("bound-check", "bound-check.window_s=4.4e17", 2),  # just over the profile age
        ("field-calculus", "field-calculus.k=1e3", 2),  # e^(k*y) would overflow
        ("field-calculus", "field-calculus.k=100", 2),  # the closed form would overflow
        ("field-calculus", "field-calculus.k=-100", 2),
        ("cosmology", "cosmology.t_now_gyr=2.5e3", 2),  # density e^(4 dalpha) would overflow
        ("cosmology", "cosmology.t_now_gyr=1e7", 2),
        ("cosmology", "cosmology.t_now_gyr=1e300", 2),  # t_now overflows to inf
        ("geodesic", "geodesic.mass=1e308", 3),  # the rest energy m c^2 overflows to inf
        ("geodesic", "geodesic.c=1e155", 2),  # the monitor's (u^0)^2 would overflow
    ])
    def test_bad_input_exit_code_without_traceback(self, tmp_path, capsys,
                                                   scenario, override, code):
        cfg = write_config(tmp_path, scenario)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"),
                     "--set", override]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        if code == 3:
            assert captured.err.startswith("run error: OverflowError: ")
            assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("overrides, diag", [
        (["cosmology.s_de_gyr=8.366499935265576", "cosmology.s_rm_kyr=8366499.935265576"],
         "cosmology.s_rm_kyr: must precede s_de_gyr"),
        (["cosmology.t_now_gyr=10.892572949232882", "cosmology.s_de_gyr=10.89257294923288"],
         "cosmology.s_de_gyr: must precede t_now_gyr"),
        (["cosmology.s_rm_kyr=1e-320"],
         "cosmology.s_rm_kyr: s_rm / s_de underflows to 0, got 1e-320"),
    ], ids=["s_rm-rounds-onto-s_de", "s_de-rounds-onto-t_now", "s_rm-over-s_de-underflows"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_era_boundaries_equal_in_seconds_are_a_config_error(self, tmp_path, capsys,
                                                                 command, overrides, diag):
        # distinct in kyr and Gyr, equal (or at a ratio that underflows to 0) once
        # converted to the seconds the profile is built in
        argv = [command, str(write_config(tmp_path, "cosmology"))]
        argv += [arg for item in overrides for arg in ("--set", item)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [
            diag if command == "validate" else f"config error: {diag}"]

    @pytest.mark.parametrize("scenario, override, diag", [
        *(("cosmology", f"cosmology.h0_kms_mpc={h0}", "cosmology.h0_kms_mpc: ")
          for h0 in ("1e170", "1e174", "1e200", "1e300")),  # the profile cannot be built
        ("cosmology", "cosmology.h0_kms_mpc=1e160", "cosmology.t_now_gyr: "),
        # the era rows would square an age 2 / (3 H0) seconds past the float range
        *(("cosmology", f"cosmology.h0_kms_mpc={h0}", "cosmology.h0_kms_mpc: ")
          for h0 in ("1.5e-135", "1e-140", "1e-150", "1e-300", "1e-320")),
        ("geodesic", "geodesic.span_tau=1e-320",
         "geodesic.span_tau: span_tau / steps underflows to 0, got 1e-320"),
        # the spreading row would square steps * dt / 2 past the float range
        *(("schrodinger", f"schrodinger.dt={dt}", "schrodinger.dt: ")
          for dt in ("3e151", "1e154", "1e200", "1.7e308")),
        # an int of 401 digits parses, but no float holds it for the range check
        *((key.split(".")[0], f"{key}=1{'0' * 400}",
           f"{key}: outside the float range, got '1{'0' * 400}'")
          for key in _INT_KEYS),
    ], ids=["h0=1e170", "h0=1e174", "h0=1e200", "h0=1e300", "h0=1e160", "h0=1.5e-135",
            "h0=1e-140", "h0=1e-150", "h0=1e-300", "h0=1e-320", "span_tau=1e-320",
            "dt=3e151", "dt=1e154", "dt=1e200", "dt=1.7e308",
            *(f"{key}=1e400-int" for key in _INT_KEYS)])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_model_that_cannot_be_set_up_is_a_config_error(self, tmp_path, capsys, command,
                                                           scenario, override, diag):
        argv = [command, str(write_config(tmp_path, scenario)), "--set", override]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        (line,) = (captured.out + captured.err).splitlines()
        assert line.startswith(diag if command == "validate" else f"config error: {diag}")

    def test_geodesic_rhs_that_underflows_to_zero_fails_the_linearity_row(self, tmp_path,
                                                                          capsys):
        # at c = 1e-160 both right-hand sides are 0: nothing shows linearity
        cfg = write_config(tmp_path, "geodesic", {"c": "1e-160"})
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if "[FAIL]" in line]
        assert len(failed) == 1 and "rhs_linearity_in_gradient: measured inf" in failed[0]

    def test_schrodinger_step_whose_spread_squares_to_a_float_validates(self, tmp_path):
        # steps * dt / 2 = 1.3e154, just under sqrt(max) = 1.34e154
        cfg = write_config(tmp_path, "schrodinger", {"dt": "2.6e151"})
        assert main(["validate", str(cfg)]) == 0

    def test_geodesic_subnormal_step_runs(self, tmp_path):
        # span_tau / steps = 1e-314: subnormal, but a step
        cfg = write_config(tmp_path, "geodesic", {"span_tau": "1e-310"})
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("scenario, override", [
        ("geodesic", "geodesic.steps=1000000000000000"),
        ("schrodinger", "schrodinger.n=2000000000000000"),
    ])
    def test_count_too_large_for_memory_is_a_run_error(self, tmp_path, capsys,
                                                       scenario, override):
        # arrays of petabytes, past the address space: the allocation fails at once
        cfg = write_config(tmp_path, scenario)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"),
                     "--set", override]) == 3
        err = capsys.readouterr().err
        assert err.startswith("run error: ") and "MemoryError: " in err
        assert err.count("\n") == 1

    def test_geodesic_at_rest_runs(self, tmp_path):
        # beta = 0 is inside the parameter's range; the straight-line deviation
        # must not be scaled by the zero distance travelled
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "geodesic", {"beta": "0"})
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        for name in ("report.csv", "geodesic_trajectory.csv"):
            with open(out / name, newline="") as fh:
                rows = list(csv.DictReader(l for l in fh if not l.startswith("#")))
            assert rows
            for row in rows:
                assert all(math.isfinite(float(cell)) for column, cell in row.items()
                           if column not in {"name", "pass"}), row

    @pytest.mark.parametrize("scenario, override, error", [
        ("schrodinger", "schrodinger.dt=1e6", "NotNormalized"),  # the damped norm vanishes
        ("geodesic", "geodesic.c=1e-300", "FloatingPointError"),
        ("field-calculus", "field-calculus.sigma=1e-300", "FloatingPointError"),
    ], ids=["schrodinger-schrodinger.dt=1e6", "geodesic-geodesic.c=1e-300",
            "field-calculus-field-calculus.sigma=1e-300"])
    def test_floating_point_error_is_one_line(self, tmp_path, scenario, override, error):
        # a child process, so that NumPy warnings reach stderr as a user sees them
        cfg = write_config(tmp_path, scenario)
        env = {**os.environ, "PYTHONPATH": str(Path(valuefield.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "valuefield.cli", "run", str(cfg),
             "--out", str(tmp_path / "out"), "--set", override],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr.startswith(f"run error: {error}: ")
        assert proc.stderr.count("\n") == 1
        assert "Warning" not in proc.stderr


class TestOverridesAndEnv:
    def test_set_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bound-check")
        code = main(["run", str(cfg), "--out", str(tmp_path / "out"),
                     "--set", "bound-check.eps=1e-30"])
        assert code == 1

    def test_env_output_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, "bound-check")
        target = tmp_path / "env_out"
        monkeypatch.setenv("VALUEFIELD_OUT", str(target))
        assert main(["run", str(cfg)]) == 0
        assert (target / "report.csv").exists()

    def test_malformed_set_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bound-check")
        code = main(["run", str(cfg), "--set", "nodotkey"])
        assert code == 2

    def test_config_section_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("VALUEFIELD_OUT", raising=False)
        path = tmp_path / "run.cfg"
        path.write_text("[scenario]\nname = bound-check\n\n"
                        "[output]\ndir = from_config\n")
        assert main(["run", str(path)]) == 0
        assert (tmp_path / "from_config" / "report.csv").exists()

    def test_non_default_h0(self, tmp_path):
        cfg = write_config(tmp_path, "cosmology", {"h0_kms_mpc": "67"})
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_radiation_boundary_above_the_ratio_underflow_runs(self, tmp_path, command):
        # s_rm / s_de is about 3.2e-305 s over 3.2e17 s: 1e-322, subnormal but above 0
        argv = [command, str(write_config(tmp_path, "cosmology", {"s_rm_kyr": "1e-315"}))]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 0

    @pytest.mark.parametrize("h0", ["1e-130", "2e-135"])
    def test_tiny_hubble_constant_whose_era_ages_square_runs_to_its_checks(self, tmp_path,
                                                                           capsys, h0):
        # the squared era ages stay finite; the dark-energy onset check fails on its own
        cfg = write_config(tmp_path, "cosmology", {"h0_kms_mpc": h0})
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if "[FAIL]" in line]
        assert len(failed) == 1 and "onset_slope_steepening" in failed[0]

    def test_old_universe_below_the_density_overflow_runs(self, tmp_path):
        # at H0 = 70 the first alpha_profile.csv density overflows near 2.37e3 Gyr
        cfg = write_config(tmp_path, "cosmology", {"t_now_gyr": "2e3"})
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0


class TestRepeatedCalls:
    def test_two_main_calls_in_one_process_are_independent(self, tmp_path, capsys):
        # one parser serves every call: neither the --set list nor --out of a
        # call reaches the next
        cfg = write_config(tmp_path, "bound-check")
        assert main(["run", str(cfg), "--out", str(tmp_path / "a"),
                     "--set", "bound-check.eps=1e-30"]) == 1
        assert main(["run", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert main(["validate", str(cfg), "--set", "bound-check.eps=-1"]) == 2
        assert main(["validate", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.count("[FAIL]") == 1 and "bound-check.eps: " in out
        flags = {}
        for name in ("a", "b"):
            with open(tmp_path / name / "report.csv", newline="") as fh:
                flags[name] = {row["pass"] for row in csv.DictReader(
                    line for line in fh if not line.startswith("#"))}
        assert "false" in flags["a"] and flags["b"] == {"true"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b", "run.cfg"]


class TestDeterminism:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_byte_identical_runs(self, tmp_path, scenario):
        cfg = dict(DEFAULT_CONFIGS[scenario])
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        r1 = run_scenario(scenario, cfg, out1)
        r2 = run_scenario(scenario, cfg, out2)
        names1 = sorted(Path(p).name for p in r1.artifacts)
        names2 = sorted(Path(p).name for p in r2.artifacts)
        assert names1 == names2
        for name in names1:
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_demo_directories_are_byte_identical(self, tmp_path, capsys, scenario):
        # every file the CLI leaves, the emitted config included, not only the artifacts
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert main(["demo", scenario, "--out", str(d)]) == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


class TestReports:
    def test_report_schema_and_constants_header(self, tmp_path):
        run_scenario("bound-check", dict(DEFAULT_CONFIGS["bound-check"]), tmp_path)
        text = (tmp_path / "report.csv").read_text().splitlines()
        constants = [l for l in text if l.startswith("#")]
        assert any("c_m_per_s" in l for l in constants)
        header_idx = len(constants)
        assert text[header_idx] == "name,expected,measured,tolerance,pass"
        assert all(line.count(",") == 4 for line in text[header_idx:])

    def test_report_lines_all_end_in_crlf(self, tmp_path):
        # the constants preamble ends its lines as the csv rows do
        run_scenario("bound-check", dict(DEFAULT_CONFIGS["bound-check"]), tmp_path)
        lines = (tmp_path / "report.csv").read_bytes().split(b"\n")
        assert lines.pop() == b""
        assert lines[0].startswith(b"# ")
        assert all(line.endswith(b"\r") for line in lines)

    def test_every_scenario_reports_checks(self, tmp_path):
        for scenario in SCENARIOS:
            report = run_scenario(scenario, dict(DEFAULT_CONFIGS[scenario]),
                                  tmp_path / scenario)
            assert report.checks, scenario
            assert report.all_passed, scenario
            names = [c.name for c in report.checks]
            assert len(names) == len(set(names)), scenario

    def test_every_numeric_csv_cell_parses_as_float(self, tmp_path):
        text_columns = {"name", "pass", "op"}
        fraction_columns = {"s", "t", "a", "b", "expected"}  # arithmetic_golden.csv
        bad = []
        for scenario in SCENARIOS:
            report = run_scenario(scenario, dict(DEFAULT_CONFIGS[scenario]),
                                  tmp_path / scenario)
            for path in map(Path, report.artifacts):
                skip = text_columns
                if path.name == "arithmetic_golden.csv":
                    skip = text_columns | fraction_columns
                with open(path, newline="") as fh:
                    rows = list(csv.DictReader(l for l in fh if not l.startswith("#")))
                bad += [(path.name, column, cell) for row in rows
                        for column, cell in row.items()
                        if column not in skip and not parses_as_float(cell)]
        assert bad == []

    def test_h0_rate_checked_against_published_value(self, tmp_path, monkeypatch):
        # a megaparsec 10% off must fail the rate check at any H0
        monkeypatch.setattr(cosmology, "MPC_KM", cosmology.MPC_KM * 1.1)
        report = run_scenario("cosmology", {"h0_kms_mpc": "67"}, tmp_path)
        assert not next(c for c in report.checks if c.name == "h0_per_year").passed

    def test_bound_check_pass_flags_agree_at_eps_equal_to_deviation(self, tmp_path):
        dev = run_scenario("bound-check", {}, tmp_path / "default").checks[0].measured
        out = tmp_path / "at_dev"
        assert main(["run", str(write_config(tmp_path, "bound-check", {"eps": repr(dev)})),
                     "--out", str(out)]) == 0
        with open(out / "bound_check.csv", newline="") as fh:
            assert [row["pass"] for row in csv.DictReader(fh)] == ["true"]
        with open(out / "report.csv", newline="") as fh:
            rows = csv.DictReader(l for l in fh if not l.startswith("#"))
            assert [row["pass"] for row in rows] == ["true"]

    def test_run_scenario_rejects_unknown_key(self, tmp_path):
        with pytest.raises(ConfigInvalid, match="bound-check.volume: unknown key"):
            run_scenario("bound-check", {"volume": "12"}, tmp_path)

    def test_one_registration_holds_the_table_the_rule_and_the_run(self, tmp_path):
        def rule(p):
            return [] if p["a"] < p["b"] else ["throwaway.a: must lie below b"]

        def run(p, report):
            report.add_bound("a_below_b", p["a"] - p["b"], 0.0)

        try:
            _scenario("throwaway", {"a": Param(float, "1"), "b": Param(float, "2")}, rule)(run)
            assert parse_params("throwaway", {}) == ({"a": 1.0, "b": 2.0}, [])
            assert parse_params("throwaway", {"a": "3"})[1] == ["throwaway.a: must lie below b"]
            with pytest.raises(ConfigInvalid, match="^throwaway.a: must lie below b$"):
                run_scenario("throwaway", {"a": "3"}, tmp_path)
            report = run_scenario("throwaway", {}, tmp_path)
        finally:
            SCENARIOS.pop("throwaway", None)
        assert report.scenario == "throwaway" and report.all_passed
        assert report.artifacts == [str(tmp_path / "report.csv")]


class TestGoldenVectors:
    def test_golden_csv_rows_recompute_exactly(self, tmp_path):
        import csv
        from fractions import Fraction

        from valuefield.scaled_numbers import commutation_table

        run_scenario("arithmetic-check", {"seed": "5", "cases": "50"}, tmp_path)
        with open(tmp_path / "arithmetic_golden.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 100  # one mul and one div row per case
        for row in rows:
            s, t = Fraction(row["s"]), Fraction(row["t"])
            a, b = Fraction(row["a"]), Fraction(row["b"])
            transport, _, _ = commutation_table(s, t, row["op"], a, b)
            assert transport == Fraction(row["expected"])

    def test_default_golden_csv_bytes_are_pinned(self, tmp_path):
        import hashlib

        run_scenario("arithmetic-check", {}, tmp_path)
        digest = hashlib.sha256((tmp_path / "arithmetic_golden.csv").read_bytes()).hexdigest()
        assert digest == "00f9f19ae102fef59d1bfcdaecef261d78a971e842b5df8243a47dced3e9bf8e"


_CASES = 40
_COUNTERS = ("raw", "compose", "zero", "mul", "div", "add")


def _arithmetic_failures(tmp_path):
    report = run_scenario("arithmetic-check", {"cases": str(_CASES)}, tmp_path)
    return report, {c.name: c.measured for c in report.checks}


def _every_case_fails(failing):
    return {f"exact_{name}_failures": _CASES if name in failing else 0 for name in _COUNTERS}


class TestArithmeticCounters:
    """Each exact_*_failures counter fires on a broken scaled-number layer."""

    @pytest.mark.parametrize("broken, failing", [
        (lambda value: 2 * value, {"raw", "compose"}),  # zero stays zero
        (lambda value: value + 1, {"raw", "compose", "zero"}),
    ], ids=["doubled", "plus-one"])
    def test_a_wrong_connection_fails_its_counters(self, tmp_path, monkeypatch, broken, failing):
        connect = sn.connect_value
        monkeypatch.setattr(sn, "connect_value", lambda s, t, x: sn.ScaledNumber(
            broken(connect(s, t, x).value), s))
        report, counts = _arithmetic_failures(tmp_path)
        assert not report.all_passed and counts == _every_case_fails(failing)

    @pytest.mark.parametrize("broken, failing", [
        # add's two sides are equal, so swapping them cannot fail it
        (lambda transport, combo: (combo, transport), {"mul", "div"}),
        (lambda transport, combo: (transport, combo + 1), {"mul", "div", "add"}),
    ], ids=["swapped", "combo-plus-one"])
    def test_a_wrong_commutation_table_fails_its_counters(self, tmp_path, monkeypatch, broken,
                                                          failing):
        table = sn.commutation_table

        def wrong(s, t, op, a, b):
            transport, combo, ratio = table(s, t, op, a, b)
            return (*broken(transport, combo), ratio)

        monkeypatch.setattr(sn, "commutation_table", wrong)
        report, counts = _arithmetic_failures(tmp_path)
        assert not report.all_passed and counts == _every_case_fails(failing)


class TestDemo:
    def test_demo_writes_config_and_report(self, tmp_path, capsys):
        code = main(["demo", "field-calculus", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "field-calculus.cfg").exists()
        assert (tmp_path / "report.csv").exists()
        # the emitted config round-trips through validate
        assert main(["validate", str(tmp_path / "field-calculus.cfg")]) == 0


def _loaded_after(code):
    """Names in sys.modules after running ``code`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(valuefield.__file__).parents[1])}
    code += "; import sys; print(' '.join(sorted(sys.modules)), file=sys.stderr)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return set(proc.stderr.split())


def test_importing_the_cli_loads_no_scipy_solver():
    # scipy.linalg is imported only by the fd Crank-Nicolson step, which uses it
    loaded = _loaded_after("import valuefield.cli")
    assert {"scipy.linalg", "scipy.integrate"} & loaded == set()


def test_default_cosmology_run_loads_no_scipy(tmp_path):
    loaded = _loaded_after("from valuefield.cli import main; "
                           f"assert main(['demo', 'cosmology', '--out', {str(tmp_path)!r}]) == 0")
    assert sorted(m for m in loaded if m.split(".")[0] == "scipy") == []


def test_every_default_scenario_runs_without_scipy(tmp_path):
    # only the fd Crank-Nicolson step imports scipy, and no scenario takes it
    loaded = _loaded_after(
        "from valuefield.cli import main; from valuefield.scenarios import SCENARIOS; "
        f"assert SCENARIOS and all(main(['demo', s, '--out', {str(tmp_path)!r} + '/' + s]) == 0 "
        "for s in SCENARIOS)")
    assert sorted(m for m in loaded if m.split(".")[0] == "scipy") == []
