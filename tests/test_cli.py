import csv
import filecmp
import os
import subprocess
import sys
from pathlib import Path

import pytest

import valuefield
from valuefield import cosmology
from valuefield.cli import DEFAULT_CONFIGS, load_config, main, validate_config
from valuefield.errors import ConfigInvalid
from valuefield.scenarios import SCENARIOS, run_scenario


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

    def test_unknown_key(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "bound-check", {"volume": "12"}))
        diags = validate_config(cfg)
        assert any("bound-check.volume" in d and "unknown" in d for d in diags)


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
        ("geodesic", "geodesic.alpha_const=nan", 2),
        ("cosmology", "cosmology.h0_kms_mpc=inf", 2),
        ("cosmology", "cosmology.s_rm_kyr=-1", 2),
        ("bound-check", "bound-check.window_s=1e30", 2),
        ("bound-check", "bound-check.window_s=4.4e17", 2),  # just over the profile age
        ("field-calculus", "field-calculus.k=1e3", 3),  # exp overflows mid-run
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


class TestReports:
    def test_report_schema_and_constants_header(self, tmp_path):
        run_scenario("bound-check", dict(DEFAULT_CONFIGS["bound-check"]), tmp_path)
        text = (tmp_path / "report.csv").read_text().splitlines()
        constants = [l for l in text if l.startswith("#")]
        assert any("c_m_per_s" in l for l in constants)
        header_idx = len(constants)
        assert text[header_idx] == "name,expected,measured,tolerance,pass"
        assert all(line.count(",") == 4 for line in text[header_idx:])

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

    def test_run_scenario_rejects_unknown_key(self, tmp_path):
        with pytest.raises(ConfigInvalid, match="bound-check.volume: unknown key"):
            run_scenario("bound-check", {"volume": "12"}, tmp_path)


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


class TestDemo:
    def test_demo_writes_config_and_report(self, tmp_path, capsys):
        code = main(["demo", "field-calculus", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "field-calculus.cfg").exists()
        assert (tmp_path / "report.csv").exists()
        # the emitted config round-trips through validate
        assert main(["validate", str(tmp_path / "field-calculus.cfg")]) == 0
