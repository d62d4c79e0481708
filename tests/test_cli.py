"""Command-line interface: outputs, formats, reproducibility, exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qlesim import cli, microbath
from qlesim.bath import SystemSpec
from qlesim.errors import QuadratureError
from qlesim.io import parse_config_text
from test_fdt import direct_strict_ohmic


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def data_rows(csv_text):
    rows = []
    header = None
    for line in csv_text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(v) for v in line.split(",")])
    return header, np.array(rows)


class TestDist:
    def test_default_blocks_normalized(self, capsys):
        # trapezoid over the emitted window must agree with exact
        # quadrature of the same window to 1e-3; the potential density
        # concentrates inside the window so its integral is also 1 to 1e-3,
        # while the kinetic density keeps O(Gamma) tail mass above it
        from scipy.integrate import quad
        from qlesim import fdt

        code, out, _ = run_cli(["dist"], capsys)
        assert code == 0
        header, rows = data_rows(out)
        assert header == ["Gamma", "Lambda", "Pk", "Pp"]
        gammas = np.unique(rows[:, 0])
        assert sorted(gammas) == [0.0125, 0.125, 0.5, 1.0]
        for g in gammas:
            block = rows[rows[:, 0] == g]
            assert block.shape[0] == 2000
            for col, density in ((2, fdt.pk_density), (3, fdt.pp_density)):
                integral = np.trapezoid(block[:, col], block[:, 1])
                window_exact, _ = quad(lambda x: density(x, g), 0.0, 10.0,
                                       limit=400, points=[1.0])
                assert integral == pytest.approx(window_exact, abs=1e-3)
            pp_integral = np.trapezoid(block[:, 3], block[:, 1])
            assert pp_integral == pytest.approx(1.0, abs=1e-3)

    def test_sharp_peak_location(self, capsys):
        code, out, _ = run_cli(["dist", "--gammas", "0.0125"], capsys)
        header, rows = data_rows(out)
        lam = rows[:, 1]
        step = lam[1] - lam[0]
        for col in (2, 3):
            peak = lam[np.argmax(rows[:, col])]
            assert abs(peak - 1.0) <= step + 1e-12

    def test_json_matches_csv_numbers(self, capsys):
        code1, csv_out, _ = run_cli(["dist", "--gammas", "0.5", "--grid", "0:10:50"],
                                    capsys)
        code2, json_out, _ = run_cli(
            ["dist", "--gammas", "0.5", "--grid", "0:10:50", "--format", "json"],
            capsys)
        assert code1 == 0 and code2 == 0
        parsed = json.loads(json_out)
        _, rows = data_rows(csv_out)
        # identical decimal renderings: every CSV cell appears in the JSON
        csv_cells = [line for line in csv_out.splitlines()
                     if not line.startswith("#")][1:]
        for line in csv_cells:
            for cell in line.split(","):
                assert cell in json_out
        assert len(parsed["rows"]) == rows.shape[0]


class TestCorr:
    def test_weak_coupling_overlay_within_two_percent(self, capsys):
        code, out, _ = run_cli(
            ["corr", "--gamma", "0.0001", "--grid", "0:10:21"], capsys)
        assert code == 0
        header, rows = data_rows(out)
        dev_x = rows[:, header.index("dev_x")]
        dev_v = rows[:, header.index("dev_v")]
        assert np.max(dev_x) < 0.02
        assert np.max(dev_v) < 0.02

    def test_strong_damping_default_grid_completes(self, capsys):
        # the velocity channel at tau = 4.75 used to exit 2 (quadrature
        # did not converge)
        code, out, err = run_cli(["corr", "--gamma", "1"], capsys)
        assert code == 0, err
        header, rows = data_rows(out)
        assert rows.shape == (41, len(header))
        assert np.all(np.isfinite(rows))

    def test_slow_pole_near_a_matsubara_frequency(self, capsys):
        # gamma 1e-4 from where the slow pole meets 2 pi kB T / hbar: the velocity
        # channel raised (error bound 3.710e-10) and the command exited 2
        code, out, err = run_cli(["corr", "--omega0", "10", "--gamma", "22.2009"], capsys)
        assert (code, err) == (0, "")
        header, rows = data_rows(out)
        sys_ = SystemSpec(omega0=10.0)
        for column, velocity in (("Cx", False), ("Cv", True)):
            want = direct_strict_ohmic(0.0, sys_, 22.2009, 1e3, velocity)
            assert rows[0, header.index(column)] == pytest.approx(want, rel=1e-9), column

    def test_far_tau_prints_no_nan(self, capsys):
        # tau = 5e29 and 1e30 printed nan in Cx, Cv, dev_x and dev_v, with three
        # warning lines, and exit 0: the E1 tail's series overflowed
        code, out, err = run_cli(["corr", "--grid", "0:1e30:3"], capsys)
        assert (code, err) == (0, "")
        header, rows = data_rows(out)
        assert rows.shape == (3, len(header))
        assert np.all(np.isfinite(rows))
        assert "nan" not in out


class TestEnergy:
    def test_ratio_monotone_to_one(self, capsys):
        code, out, _ = run_cli(
            ["energy", "--gammas", "1,0.5,0.125,0.0125"], capsys)
        assert code == 0
        header, rows = data_rows(out)
        ratio = rows[:, header.index("Ek_over_Ep")]
        assert np.all(np.diff(ratio) < 0)
        assert abs(ratio[-1] - 1.0) < abs(ratio[0] - 1.0)

    def test_large_mass_keeps_the_uv_part(self, capsys):
        # Ek and Ep do not depend on the mass at fixed gamma; at mass 1e150
        # the strict loss overflowed above omega = 116 and Ek read 1.19288
        # for 1.25907, and an absolute tolerance of 1e-12 whatever the mass
        # bounded nothing of C ~ 1e-150 (Ek 7.1e-5 off)
        _, unit = data_rows(run_cli(["energy", "--gammas", "0.1"], capsys)[1])
        code, out, err = run_cli(["energy", "--mass", "1e150", "--gammas", "0.1"], capsys)
        assert (code, err) == (0, "")
        header, rows = data_rows(out)
        for column in ("Ek", "Ep"):
            i = header.index(column)
            assert rows[0, i] == pytest.approx(unit[0, i], rel=1e-7), column

    def test_overdamped_potential_energy_is_kt(self, capsys):
        # the octaves stopped above the peak of width omega0 / Gamma at omega =
        # 0: Ep read 9.83142310421e-18 and Ek_over_Ep 161.884997322, exit 0
        code, out, err = run_cli(["energy", "--gammas", "1e20"], capsys)
        assert (code, err) == (0, "")
        header, rows = data_rows(out)
        assert rows[0, header.index("Ep")] == pytest.approx(1.0, abs=1e-9)

    def test_slow_pole_on_a_matsubara_frequency(self, capsys):
        # at gamma = 2.2198... w0 the slow pole sits on 2 pi kB T / hbar; exit 0
        # printed Ep = 1.98943678865 and Ek = 28.0112699842, and later exit 2,
        # while the slow pole had a closed-form term that cancelled the remainder
        code, out, err = run_cli(["energy", "--omega0", "10", "--gammas",
                                  "2.219867961636912"], capsys)
        assert (code, err) == (0, "")
        header, rows = data_rows(out)  # the direct QUADPACK values at omega_max = 1000
        assert rows[0, header.index("Ep")] == pytest.approx(3.28387414614, rel=1e-9)
        assert rows[0, header.index("Ek")] == pytest.approx(28.0516590443, rel=1e-9)


class TestEnsembleCommands:
    def test_sde_reproducible_bytes(self, capsys):
        args = ["sde", "--gamma", "0.2", "--traj", "200", "--steps", "50",
                "--seed", "9"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_sde_moments_near_reference(self, capsys):
        code, out, _ = run_cli(
            ["sde", "--gamma", "0.1", "--traj", "500", "--steps", "100"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("x2,")]
        value, se, ref = (float(lines[0].split(",")[i]) for i in (1, 2, 4))
        assert abs(value - ref) < 4.0 * se

    def test_rwa_reports_ehrenfest(self, capsys):
        code, out, _ = run_cli(
            ["rwa", "--gamma", "0.02", "--traj", "100", "--steps", "20"], capsys)
        assert code == 0
        assert "ehrenfest_residual" in out

    def test_microbath_report_sections(self, capsys):
        code, out, _ = run_cli(
            ["microbath", "--gamma", "0.5", "--cutoff", "3", "--modes", "100",
             "--realizations", "200", "--steps", "300", "--dt", "0.03"], capsys)
        assert code == 0
        assert "noise_autocorr" in out
        assert "gle_moment_x2" in out

    def test_trajectory_dump_columns(self, tmp_path, capsys):
        dump = tmp_path / "traj.csv"
        code, _, _ = run_cli(
            ["microbath", "--gamma", "0.5", "--cutoff", "3", "--modes", "50",
             "--realizations", "20", "--steps", "100", "--dt", "0.03",
             "--dump-traj", str(dump), "--dump-count", "2"], capsys)
        assert code == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "realization,t,x,v,f"
        ids = {line.split(",")[0] for line in lines[1:]}
        assert ids == {"0", "1"}

    def test_rwa_trajectory_dump(self, tmp_path, capsys):
        dump = tmp_path / "rwa_traj.csv"
        code, _, _ = run_cli(
            ["rwa", "--gamma", "0.1", "--traj", "5", "--steps", "30",
             "--dump-traj", str(dump), "--dump-count", "2"], capsys)
        assert code == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "realization,t,x,p,f_x,f_p"
        ids = [line.split(",")[0] for line in lines[1:]]
        assert set(ids) == {"0", "1"}
        assert len(ids) == 2 * 31

    def test_sde_trajectory_dump(self, tmp_path, capsys):
        dump = tmp_path / "sde_traj.csv"
        code, _, _ = run_cli(
            ["sde", "--gamma", "0.2", "--traj", "50", "--steps", "40",
             "--dump-traj", str(dump)], capsys)
        assert code == 0
        assert dump.read_text().startswith("realization,t,x,v,f")

    @pytest.mark.parametrize("command", ("sde", "rwa"))
    def test_dump_count_capped_at_traj(self, command, tmp_path, capsys):
        # as for microbath, no realization outside the reported ensemble
        dump = tmp_path / "traj.csv"
        code, _, _ = run_cli(
            [command, "--traj", "3", "--steps", "5", "--dump-traj", str(dump),
             "--dump-count", "5"], capsys)
        assert code == 0
        ids = {line.split(",")[0] for line in dump.read_text().splitlines()[1:]}
        assert ids == {"0", "1", "2"}

    def test_microbath_dump_decomposes_normal_modes_once(self, tmp_path, capsys,
                                                        monkeypatch):
        calls = []
        eigen = microbath._arrowhead_eigen
        monkeypatch.setattr(microbath, "_arrowhead_eigen",
                            lambda *a: calls.append(a) or eigen(*a))
        args = ["microbath", "--modes", "200", "--realizations", "64"]
        code, dumped, _ = run_cli([*args, "--dump-traj", str(tmp_path / "traj.csv")], capsys)
        assert (code, len(calls)) == (0, 1)
        # the ensemble reads the same without the dump
        code, out, _ = run_cli(args, capsys)
        assert (code, len(calls), out) == (0, 2, dumped)

    def test_sde_long_exact_step_exits_zero(self, capsys):
        # fast * dt = 48: the Van Loan step overflowed and reported divergence
        code, out, err = run_cli(
            ["sde", "--gamma", "5", "--dt", "10", "--traj", "64", "--steps", "20"], capsys)
        assert (code, err) == (0, "")
        line = next(l for l in out.splitlines() if l.startswith("x2,"))
        value, se, ref = (float(line.split(",")[i]) for i in (1, 2, 4))
        assert abs(value - ref) < 5.0 * se


SMALL_RUNS = {
    "dist": ["--grid", "0:2:5", "--gammas", "0.5"],
    "corr": ["--grid", "0:1:3"],
    "energy": ["--gammas", "0.5"],
    "sde": ["--traj", "8", "--steps", "5"],
    "rwa": ["--traj", "8", "--steps", "5"],
    "microbath": ["--modes", "50", "--realizations", "10", "--steps", "10", "--dt", "0.05"],
    "scan": ["--gammas", "0.5", "--grid", "0:2:5"],
}


# the flags that only some commands take, with those commands; a command takes every
# other RunConfig key as a flag, and a config file takes every key for every command
SCOPED_FLAGS = {
    "gammas": ("dist", "energy", "scan"),
    "cutoff": ("microbath",),
    "modes": ("microbath",),
    "realizations": ("microbath",),
    "traj": ("sde", "rwa"),
    "steps": ("sde", "rwa", "microbath"),
    "dt": ("sde", "rwa", "microbath"),
    "dump-traj": ("sde", "rwa", "microbath"),
    "dump-count": ("sde", "rwa", "microbath"),
}
# every RunConfig key: a value off its default, and a malformed one (out takes any text)
KEY_VALUES = {
    "gamma": ("0.25", "fast"), "omega0": ("1.5", "1,5"), "temp": ("2", "hot"),
    "hbar": ("0.5", "0x1"), "kb": ("2", "k"), "mass": ("3", "3kg"),
    "omega_max": ("500", "5e2.0"), "grid": ("0:4:5", "0:4"), "gammas": ("0.5,0.25", "0.5;0.25"),
    "cutoff": ("4", "four"), "modes": ("30", "30.0"), "realizations": ("70", "7e1"),
    "traj": ("70", "1.5"), "steps": ("12", "1.5"), "dt": ("0.01", "1/100"),
    "seed": ("7", "seven"), "format": ("json", "xml"), "out": ("table.csv", None),
}


def keys_taken(command):
    """The RunConfig keys that ``command`` takes as flags, and the flag of each."""
    return [(key, "--" + key.replace("_", "-")) for key in KEY_VALUES
            if command in SCOPED_FLAGS.get(key.replace("_", "-"), cli.COMMANDS)]


def test_key_values_cover_every_key():
    assert list(KEY_VALUES) == list(cli.RunConfig(command="dist").to_params())


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_flag_and_config_line_give_one_config(command, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    for key, flag in keys_taken(command):
        value = KEY_VALUES[key][0]
        from_flag = cli.config_from_args(cli.build_parser().parse_args([command, flag, value]))
        cfg_file.write_text(f"{key}={value}\n")
        from_line = cli.config_from_args(
            cli.build_parser().parse_args([command, "--config", str(cfg_file)]))
        assert from_flag == from_line != cli.RunConfig(command=command).validate(), key


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_malformed_flag_and_config_line_give_one_error(command, tmp_path, capsys):
    # a flag's value was typed by argparse: steps=1.5 in a config file printed
    # "error: steps must be an integer, got '1.5'", and --steps 1.5
    # "error: argument --steps: invalid int value: '1.5'"
    cfg_file = tmp_path / "run.cfg"
    for key, flag in keys_taken(command):
        value = KEY_VALUES[key][1]
        if value is None:
            continue
        from_flag = run_cli([command, flag, value], capsys)
        cfg_file.write_text(f"{key}={value}\n")
        assert run_cli([command, "--config", str(cfg_file)], capsys) == from_flag, key
        code, out, err = from_flag
        assert (code, out) == (1, ""), key
        assert err.startswith("error: ") and len(err.splitlines()) == 1, key


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_stderr_is_clean(command, tmp_path, capsys):
    extra = ["--out", str(tmp_path / "scan")] if command == "scan" else []
    code, _, err = run_cli([command, *SMALL_RUNS[command], *extra], capsys)
    assert (code, err) == (0, "")


def test_library_warning_is_one_line(capsys):
    code, _, err = run_cli(["rwa", "--gamma", "0.5", *SMALL_RUNS["rwa"]], capsys)
    assert code == 0
    assert err == "warning: gamma exceeds omega0/10; RWA dynamics is physically dubious here\n"


def test_shared_parser_keeps_no_state_between_calls(capsys):
    # build_parser is built once per process: a failed parse and a --help on the
    # shared parser, each with options set, must leave the calls after them as if fresh
    assert cli.build_parser() is cli.build_parser()
    code, _, err = run_cli(["corr", "--gamma", "0.7", "--grid", "0:1:2", "--format", "xml"],
                           capsys)
    assert code == 1 and err.startswith("error:")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["corr", "--temp", "3", "--help"])
    assert exit_info.value.code == 0
    assert "--omega-max" in capsys.readouterr().out
    code, _, err = run_cli(["energy", "--gammas", "1,0.5", "--mass", "2"], capsys)
    assert (code, err) == (0, "")
    code, out, err = run_cli(["corr", "--grid", "0:2:3"], capsys)
    assert (code, err) == (0, "")
    assert out == (Path(__file__).parent / "golden" / "corr.out").read_text()


class TestScanAndFiles:
    def test_scan_writes_tables(self, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        code, out, _ = run_cli(
            ["scan", "--out", str(out_dir), "--gammas", "0.5,0.125",
             "--grid", "0:10:200"], capsys)
        assert code == 0
        for name in ("dist.csv", "energy.csv", "corr.csv"):
            assert (out_dir / name).exists()
            assert name in out or str(out_dir) in out

    def test_out_file_and_config_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "dist.csv"
        code, _, _ = run_cli(
            ["dist", "--gammas", "0.5", "--grid", "0:5:10",
             "--out", str(out_file)], capsys)
        assert code == 0
        text = out_file.read_text()
        params = parse_config_text(
            "\n".join(line[2:] for line in text.splitlines()
                      if line.startswith("# ") and "=" in line and
                      not line.startswith("# block") and
                      not line.startswith("# units") and
                      not line.startswith("# command")))
        rebuilt = cli.RunConfig.from_params("dist", params)
        assert rebuilt == cli.RunConfig(
            command="dist", gammas=(0.5,), grid="0:5:10",
            out=str(out_file)).validate()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("gamma=0.25\nseed=5\n")
        code, out, _ = run_cli(
            ["sde", "--config", str(cfg_file), "--traj", "50", "--steps", "10",
             "--gamma", "0.5"], capsys)
        assert code == 0
        assert "# gamma=0.5" in out
        assert "# seed=5" in out


# Known defect 7's second class: a = hbar/(2 kB T) = 5.2e315 overflows
THERMAL_EDGE = ["--hbar", "7.56e83", "--temp", "7.21e-233", "--omega0", "1.7e9", "--grid", "0:5:3"]


class TestExitCodes:
    def test_validation_error_is_one(self, capsys):
        code, _, err = run_cli(["dist", "--gammas", "-1"], capsys)
        assert code == 1
        assert "error" in err

    def test_unknown_config_key_is_one(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("volume=11\n")
        code, _, err = run_cli(["dist", "--config", str(cfg_file)], capsys)
        assert code == 1
        assert "unknown config key" in err

    def test_numeric_failure_is_two(self, capsys, monkeypatch):
        def boom(cfg):
            raise QuadratureError("synthetic non-convergence")

        monkeypatch.setitem(cli.RUNNERS, "dist", boom)
        code, _, err = run_cli(["dist"], capsys)
        assert code == 2
        assert "numeric failure" in err

    def test_io_failure_is_three(self, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "out.csv"
        code, _, err = run_cli(
            ["dist", "--gammas", "0.5", "--grid", "0:5:5",
             "--out", str(target)], capsys)
        assert code == 3
        assert "i/o error" in err

    @pytest.mark.parametrize("flag", (["--seed", "-1"], ["--gamma", "inf"],
                                      ["--dt", "inf"], ["--temp", "inf"]))
    def test_bad_number_is_one_line_error(self, flag, capsys):
        code, _, err = run_cli(["sde", "--traj", "5", *flag], capsys)
        assert code == 1
        assert err.startswith("error: " + flag[0][2:])
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for flag, takers in SCOPED_FLAGS.items()
        for command in cli.COMMANDS if command not in takers])
    def test_flag_of_another_command_is_one_line_error(self, command, flag, capsys):
        code, _, err = run_cli([command, f"--{flag}", "5"], capsys)
        assert code == 1
        assert err.startswith(f"error: unrecognized arguments: --{flag}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("args,message", (
        # k_B T underflows to 0: a ZeroDivisionError traceback in every command
        *(pytest.param([command, *SMALL_RUNS[command], "--temp", "1e-200", "--kb", "1e-200"],
                       "kb*temp is not a positive normal float", id=f"{command}-kT")
          for command in cli.COMMANDS),
        # a = hbar/(2 k_B T) overflows, so pi/a is 0: the FDT octaves ended in
        # "ValueError: math domain error"
        *(pytest.param([command, *SMALL_RUNS[command], *THERMAL_EDGE],
                       "pi*kb*temp/(2*hbar*omega0), the FDT quadrature's lowest edge over "
                       "omega0, is not a normal float", id=f"{command}-pi-over-a")
          for command in ("corr", "energy", "microbath", "scan")),
    ))
    def test_thermal_scale_past_the_floats_is_one(self, args, message, capsys):
        code, out, err = run_cli(args, capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ("dist", "sde", "rwa"))
    def test_thermal_edge_without_quadrature_runs(self, command, capsys):
        # these commands integrate nothing down to pi/a, and print finite tables
        code, out, err = run_cli([command, *SMALL_RUNS[command], *THERMAL_EDGE], capsys)
        assert (code, err) == (0, "")
        lines = [line for line in out.splitlines() if not line.startswith("#")][1:]
        cells = np.array([[float(c) for c in line.split(",")[1:]] for line in lines])
        assert cells.size and np.all(np.isfinite(cells))

    def test_rwa_at_tiny_gamma_runs(self, capsys):
        # the default dt = 1/gamma = 1e160: dt**2 in the Ehrenfest reference
        # ended in an OverflowError traceback; that reference is now <p^2>/m^2
        code, out, err = run_cli(["rwa", "--gamma", "1e-160", "--traj", "64", "--steps", "2"],
                                 capsys)
        assert (code, err) == (0, "")
        lines = [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]
        cells = {name: np.array([float(c) for c in rest]) for name, *rest in lines}
        assert len(cells) == 4 and all(np.all(np.isfinite(row)) for row in cells.values())
        assert cells["ehrenfest_residual"][-1] == pytest.approx(cells["x2"][-1], rel=1e-12)

    def test_malformed_config_line_is_one_line_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("oops\n")
        code, _, err = run_cli(["sde", "--config", str(cfg_file)], capsys)
        assert code == 1
        assert err.startswith("error: config line 1")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ("sde", "rwa", "microbath"))
    def test_bad_dump_count_rejected_before_running(self, command, tmp_path,
                                                    capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("simulation ran")

        for module, name in ((cli.markovian, "simulate_sde"), (cli.rwa_mod, "simulate_rwa"),
                             (cli.microbath, "ensemble_stats")):
            monkeypatch.setattr(module, name, fail)
        dump = tmp_path / "traj.csv"
        code, _, err = run_cli([command, "--dump-traj", str(dump), "--dump-count", "0"],
                               capsys)
        assert code == 1
        assert err == "error: dump-count must be >= 1\n"
        assert not dump.exists()

    @pytest.mark.parametrize("command", ("sde", "rwa", "microbath"))
    def test_malformed_dump_count_is_one_line_error(self, command, capsys):
        # argparse typed it: "error: argument --dump-count: invalid int value: 'x'"
        code, out, err = run_cli([command, "--dump-count", "x"], capsys)
        assert (code, out, err) == (1, "", "error: dump-count must be an integer, got 'x'\n")

    def test_microbath_coarse_dt_checked_only_for_dump(self, tmp_path, capsys,
                                                       monkeypatch):
        args = ["microbath", "--dt", "0.05", "--modes", "50", "--realizations", "10",
                "--steps", "10"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert "gle_moment_x2" in out

        def fail(*a, **kw):
            raise AssertionError("normal modes built")

        monkeypatch.setattr(cli.microbath, "_NormalModes", fail)
        dump = tmp_path / "traj.csv"
        code, _, err = run_cli([*args, "--dump-traj", str(dump)], capsys)
        assert code == 1
        assert err.startswith("error: dt * max mode frequency")
        assert len(err.splitlines()) == 1
        assert not dump.exists()

    @pytest.mark.parametrize("args", (
        ["microbath", "--mass", "1e-200", "--modes", "20", "--realizations", "64"],
        ["sde", "--mass", "1e-200", "--traj", "64", "--steps", "10"],
        ["rwa", "--mass", "1e-200", "--traj", "64", "--steps", "10"],
        ["sde", "--mass", "1e160", "--traj", "64", "--steps", "10"],
        ["microbath", "--mass", "1e160", "--modes", "20", "--realizations", "64"],
    ), ids=lambda args: f"{args[0]}-{args[2]}")
    def test_unit_scale_whose_square_leaves_the_floats_is_one(self, args, capsys):
        # past the check each ends in a ZeroDivisionError or OverflowError
        # traceback, or (microbath at 1e160) prints a reference wrong by 1e-2
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: the square of mass")
        assert len(err.splitlines()) == 1

    def test_microbath_large_mass_rows_scale(self, capsys):
        # the cutoff loss squared |1/alpha| ~ m w^2, which overflowed at m =
        # 1e150 above w ~ 100: the gle_moment_v2 reference read 1.19164987544e-150
        # and x2 1.08108508502e-150, where the unit-mass run gives 1.20829258435
        # and 1.08108581793
        args = ["microbath", "--cutoff", "200", "--gamma", "0.1", "--modes", "20",
                "--realizations", "64"]

        def moments(out):
            return [[float(c) for c in line.split(",")[1:]]
                    for line in out.splitlines() if line.startswith("gle_moment")]

        unit = np.array(moments(run_cli(args, capsys)[1]))
        code, out, err = run_cli([*args, "--mass", "1e150"], capsys)
        assert (code, err) == (0, "")
        heavy = np.array(moments(out))
        assert unit.shape == heavy.shape == (2, 4)
        np.testing.assert_array_equal(heavy[:, 0], unit[:, 0])  # the times
        np.testing.assert_allclose(heavy[:, 1:], 1e-150 * unit[:, 1:], rtol=1e-9)

    @pytest.mark.parametrize("mass", ("1e150", "1e-150"))
    @pytest.mark.parametrize("command", ("sde", "rwa"))
    def test_unit_scale_inside_the_floats_runs(self, command, mass, capsys):
        code, out, err = run_cli([command, "--mass", mass, "--traj", "64", "--steps", "10"],
                                 capsys)
        assert code == 0 and err == ""
        lines = [line for line in out.splitlines() if not line.startswith("#")][1:]
        cells = np.array([[float(c) for c in line.split(",")[1:]] for line in lines])
        assert np.all(np.isfinite(cells))
        assert np.all(cells[:2, 1] > 0.0)  # the sampled rows' standard errors

    @pytest.mark.parametrize("args", (
        ["sde", "--temp", "1e300", "--traj", "64", "--steps", "10"],
        ["rwa", "--temp", "1e300", "--traj", "64", "--steps", "10"],
        ["microbath", "--temp", "1e300", "--modes", "20", "--realizations", "64"],
        ["microbath", "--cutoff", "1e200", "--modes", "20", "--realizations", "64"],
    ), ids=lambda args: f"{args[0]}-{args[1][2:]}")
    def test_thermal_scale_whose_square_leaves_the_floats_is_one(self, args, capsys):
        # past the check the sampled rows printed std_error inf with exit 0,
        # and the cutoff ended in an OverflowError traceback
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: the square of E/(mass*omega0^2)")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("args,what", (
        (["dist", "--gammas", "1e300", "--grid", "0:2:3"], "a gammas ratio"),
        (["dist", "--gammas", "1e-300", "--grid", "0:2:3"], "a gammas ratio"),
        (["energy", "--gammas", "1e300"], "gamma*omega_max"),
        (["corr", "--gamma", "1e200", "--grid", "0:1:2"], "gamma*omega_max"),
    ), ids=("dist-huge", "dist-tiny", "energy", "corr"))
    def test_damping_whose_square_leaves_the_floats_is_one(self, args, what, capsys):
        # dist ended in an OverflowError traceback, or printed inf for Pk and
        # Pp with two warnings; energy in a ZeroDivisionError traceback; corr
        # printed Cx = Cv = 0 with exit 0
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: the square of {what} is not")
        assert len(err.splitlines()) == 1

    def test_omega_max_whose_loss_leaves_the_floats_is_one(self, capsys):
        # above omega = 1.16e77 the strict loss's (w0^2 - w^2)^2 overflows and it read 0:
        # at --omega-max 1e100 corr printed Cv(0) = 6.69 (about 8.4) with exit 0
        code, out, err = run_cli(["corr", "--omega-max", "1e100", "--grid", "0:1:2"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: the loss's denominator overflows")
        assert len(err.splitlines()) == 1

    def test_overdamped_inside_the_floats_runs(self, capsys):
        code, out, err = run_cli(["corr", "--gamma", "1e150", "--grid", "0:1:2"], capsys)
        assert (code, err) == (0, "")
        row = [line for line in out.splitlines() if not line.startswith("#")][1]
        assert row.split(",")[:3] == ["0", "1", "1.59155990289e-145"]
        code, out, err = run_cli(["energy", "--gammas", "1e-300"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == ("1e-300,1.08197670687,1.08197670687,1,"
                                        "1.08197670687")

    @pytest.mark.parametrize("command", ("sde", "rwa", "microbath"))
    def test_thermal_scale_inside_the_floats_runs(self, command, capsys):
        size = (["--modes", "20", "--realizations", "64"] if command == "microbath"
                else ["--traj", "64", "--steps", "10"])
        code, out, err = run_cli([command, "--temp", "1e150", *size], capsys)
        assert code == 0 and err == ""
        lines = [line for line in out.splitlines() if not line.startswith("#")][1:]
        cells = np.array([[float(c) for c in line.split(",")[2:]] for line in lines])
        assert np.all(np.isfinite(cells))

    def test_cutoff_coupling_past_the_floats_is_one(self, capsys):
        # cutoff^3 overflows while the noise scale m gamma cutoff E is still normal
        code, out, err = run_cli(["microbath", "--cutoff", "1e103", "--modes", "20",
                                  "--realizations", "64"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: the cutoff-Ohmic coupling is not finite\n"

    @pytest.mark.parametrize("cutoff", ("1e30", "1e100"))
    def test_unresolvable_mode_phase_is_one(self, cutoff, capsys):
        # the default grid ends at 200, so the fastest mode turns cutoff * 200
        # rad: past the check 1e30 printed gle_moment_x2 0 +- 0 and 1e100 a
        # std_error inf and a nan reference, with exit 0
        code, out, err = run_cli(["microbath", "--cutoff", cutoff, "--modes", "20",
                                  "--realizations", "64"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: cutoff * max(steps * dt, 25/omega0)")
        assert len(err.splitlines()) == 1

    def test_default_steps_past_the_floats_is_one(self, capsys):
        # 20 / (gamma * dt) overflows: past the check the default step count
        # ended in an OverflowError traceback
        code, out, err = run_cli(["microbath", "--dt", "1e-320", "--modes", "2",
                                  "--realizations", "1"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: the default steps 20/(gamma*dt)")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("traj,kb", (("64", "7.53e133"), ("4096", "7.53e137")))
    def test_variance_past_the_floats_is_two(self, traj, kb, capsys):
        # Ehrenfest residuals of about 6e155 square past the floats: the
        # std_error printed inf with exit 0 and a warning line, and with a
        # second chunk the merge's float power ended in an OverflowError
        code, out, err = run_cli(["rwa", "--traj", traj, "--steps", "4", "--kb", kb,
                                  "--temp", "2.45e11", "--hbar", "2.83e-10", "--dt", "6.04e-12"],
                                 capsys)
        assert (code, out) == (2, "")
        assert err.startswith("numeric failure: the ensemble variance overflows")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command,key", (("sde", "traj"), ("rwa", "traj"),
                                             ("microbath", "realizations")))
    def test_one_member_ensemble_is_one(self, command, key, capsys):
        # one member has no standard error: it printed nan with exit 0
        code, out, err = run_cli([command, f"--{key}", "1"], capsys)
        assert (code, out, err) == (1, "", f"error: {key} must be >= 2\n")

    def test_bad_grid_is_one(self, capsys):
        code, _, _ = run_cli(["dist", "--grid", "oops"], capsys)
        assert code == 1


def start_fresh(args):
    """``python *args`` started in a fresh interpreter that imports this qlesim."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def run_fresh(args):
    """``python *args`` run to its end in a fresh interpreter that imports this qlesim."""
    with start_fresh(args) as proc:
        out, err = proc.communicate(timeout=120)
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def test_python_dash_m_runs_the_cli(capsys):
    done = run_fresh(["-m", "qlesim", "dist"])
    code, out, _ = run_cli(["dist"], capsys)
    assert done.returncode == code == 0, done.stderr
    assert done.stdout == out


SCIPY_PROBE = """
import contextlib, io, json, sys
import qlesim, qlesim.cli
def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))
loaded = {"import": scipy_modules()}
for command, args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert qlesim.cli.main([command, *args]) == 0
    loaded[command] = scipy_modules()
print(json.dumps(loaded))
"""


def test_closed_form_commands_load_no_scipy():
    # pytest's filterwarnings setting has imported scipy into this process
    runs = [(command, SMALL_RUNS[command]) for command in ("sde", "rwa", "dist", "corr")]
    done = run_fresh(["-c", SCIPY_PROBE, json.dumps(runs)])
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert loaded["import"] == loaded["sde"] == loaded["rwa"] == loaded["dist"] == []
    assert "scipy.special" in loaded["corr"]  # the probe does see an import


RSS_PROBE = """
import json, resource, sys
import qlesim.cli, scipy.integrate
if len(sys.argv) > 1:
    assert qlesim.cli.main(json.loads(sys.argv[1])) == 0
print(json.dumps([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
                  [name for name in sys.modules
                   if name.partition(".")[0] in ("numpy", "scipy", "qlesim")]]))
"""


def test_ensemble_peak_rss_bounded_by_the_chunk(tmp_path):
    # fresh processes that import the same modules first, one of them to do
    # nothing else: the (1025, 2048, 2) SDE tile, or the (2N, 2048) draws and
    # the (N+1) x N rows, took about 33 MB more than that one
    runs = [["sde", "--traj", "2048", "--steps", "1000"],
            ["microbath", "--modes", "1000", "--realizations", "2048", "--steps", "10"]]
    runs = [[*argv, "--out", str(tmp_path / argv[0])] for argv in runs]
    probes = [[], *([json.dumps(argv)] for argv in runs)]  # the idle one first
    procs = [start_fresh(["-c", RSS_PROBE, *args]) for args in probes]
    results = []
    for proc in procs:
        with proc:
            out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        results.append(json.loads(out))
    (base, imported), *ran = results
    for argv, (peak, loaded) in zip(runs, ran):
        assert set(loaded) <= set(imported), (argv[0], set(loaded) - set(imported))
        assert peak - base < 16e6, (argv[0], (peak - base) / 1e6)


def test_trajectory_dump_memory_flat_in_steps(tmp_path):
    # a writer that holds a whole realization as a list of rows peaks at 4.5 MB at
    # 20,001 rows and at 22.4 MB at 100,001
    peaks = []
    for n_rows in (20_001, 100_001):
        times = np.linspace(0.0, 100.0, n_rows)
        series = list(np.random.default_rng(1).standard_normal((3, n_rows, 2)))
        tracemalloc.start()
        try:
            cli._write_trajectories(tmp_path / "traj.csv", ("x", "v", "f"), times, series)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.5e6, peaks


@pytest.mark.parametrize("argv", (["corr"], ["energy"],
                                  ["dist", "--grid", "0:1e308:3", "--gammas", "0.5"]),
                         ids=lambda argv: argv[0])
def test_first_quadrature_in_fresh_interpreter_has_clean_stderr(argv):
    # here the first quadrature call imports scipy, inside the run; the
    # dist grid squares past the float range, where P_p underflows to 0
    done = run_fresh(["-m", "qlesim", *argv])
    assert (done.returncode, done.stderr) == (0, "")
