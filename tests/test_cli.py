"""Command-line interface: outputs, formats, reproducibility, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qlesim import cli, microbath
from qlesim.errors import QuadratureError
from qlesim.io import parse_config_text


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


class TestEnergy:
    def test_ratio_monotone_to_one(self, capsys):
        code, out, _ = run_cli(
            ["energy", "--gammas", "1,0.5,0.125,0.0125"], capsys)
        assert code == 0
        header, rows = data_rows(out)
        ratio = rows[:, header.index("Ek_over_Ep")]
        assert np.all(np.diff(ratio) < 0)
        assert abs(ratio[-1] - 1.0) < abs(ratio[0] - 1.0)


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
        eigen, sample = microbath._arrowhead_eigen, microbath.sample_trajectories
        monkeypatch.setattr(microbath, "_arrowhead_eigen",
                            lambda *a: calls.append(a) or eigen(*a))
        args = ["microbath", "--modes", "200", "--realizations", "64"]
        code, shared, _ = run_cli([*args, "--dump-traj", str(tmp_path / "shared.csv")], capsys)
        assert (code, len(calls)) == (0, 1)
        # the ensemble and the dump each read the same as from their own modes
        code, own, _ = run_cli(args, capsys)
        assert (code, len(calls), own) == (0, 2, shared)
        monkeypatch.setattr(microbath, "sample_trajectories",
                            lambda *a, _normal_modes=None, **kw: sample(*a, **kw))
        code, _, _ = run_cli([*args, "--dump-traj", str(tmp_path / "own.csv")], capsys)
        assert (code, len(calls)) == (0, 4)
        assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "own.csv").read_bytes()

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


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_stderr_is_clean(command, tmp_path, capsys):
    extra = ["--out", str(tmp_path / "scan")] if command == "scan" else []
    code, _, err = run_cli([command, *SMALL_RUNS[command], *extra], capsys)
    assert (code, err) == (0, "")


def test_library_warning_is_one_line(capsys):
    code, _, err = run_cli(["rwa", "--gamma", "0.5", *SMALL_RUNS["rwa"]], capsys)
    assert code == 0
    assert err == "warning: gamma exceeds omega0/10; RWA dynamics is physically dubious here\n"


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

    def test_microbath_has_no_traj_flag(self, capsys):
        code, _, err = run_cli(["microbath", "--traj", "5"], capsys)
        assert code == 1
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1

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

    def test_microbath_coarse_dt_checked_only_for_dump(self, tmp_path, capsys,
                                                       monkeypatch):
        args = ["microbath", "--dt", "0.05", "--modes", "50", "--realizations", "10",
                "--steps", "10"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert "gle_moment_x2" in out

        def fail(*a, **kw):
            raise AssertionError("ensemble ran")

        monkeypatch.setattr(cli.microbath, "ensemble_stats", fail)
        dump = tmp_path / "traj.csv"
        code, _, err = run_cli([*args, "--dump-traj", str(dump)], capsys)
        assert code == 1
        assert err.startswith("error: dt * max mode frequency")
        assert len(err.splitlines()) == 1
        assert not dump.exists()

    def test_bad_grid_is_one(self, capsys):
        code, _, _ = run_cli(["dist", "--grid", "oops"], capsys)
        assert code == 1


def run_fresh(args):
    """``python *args`` in a fresh interpreter that imports this qlesim."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


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
    assert "scipy.integrate" in loaded["corr"]  # the probe does see an import


@pytest.mark.parametrize("command", ("corr", "energy"))
def test_first_quadrature_in_fresh_interpreter_has_clean_stderr(command):
    # here the first integrate_panels call imports scipy, inside the run
    done = run_fresh(["-m", "qlesim", command])
    assert (done.returncode, done.stderr) == (0, "")
