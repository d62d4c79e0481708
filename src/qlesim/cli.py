"""Command-line front end emitting reproducible CSV/JSON tables.

Subcommands map one-to-one onto the library: ``dist`` (dimensionless
energy densities on a frequency-ratio grid), ``corr`` (correlation
functions against their weak-coupling closed forms), ``energy`` (channel
energies over a damping sweep), ``sde`` / ``rwa`` (Monte Carlo moment
reports with standard errors), ``microbath`` (finite-bath noise
statistics and memory-dynamics moments) and ``scan`` (the standard
four-damping figure set written into a directory).  ``sde``, ``rwa`` and
``microbath`` all write sample trajectories to CSV with ``--dump-traj``.

Every run echoes its full parameter block as ``# key=value`` comment
lines that re-parse as a config file; identical parameters and seed give
identical output bytes.  Exit codes: 1 validation, 2 numeric failure,
3 I/O.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fdt, io, markovian, microbath, rwa as rwa_mod
from .bath import BathSpec, SystemSpec, discretize_bath
from .errors import (ConvergenceError, DomainError, QlesimError, QuadratureError,
                     UnstableIntegrationError)
from .quadrature import QuadratureConfig

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2
EXIT_IO = 3

# damping ratios of the standard distribution figures
FIGURE_DAMPINGS = (1.0, 0.5, 0.125, 0.0125)

COMMANDS = ("dist", "corr", "energy", "sde", "rwa", "microbath", "scan")


class _CliError(DomainError):
    """Validation failure raised during argument handling."""


@dataclass
class RunConfig:
    """Validated parameters of one CLI run; one flat key per flag."""

    command: str
    gamma: float = 0.1
    omega0: float = 1.0
    temp: float = 1.0
    hbar: float = 1.0
    kb: float = 1.0
    mass: float = 1.0
    omega_max: float = 1000.0
    grid: str = ""
    gammas: tuple = FIGURE_DAMPINGS
    cutoff: float = 3.0
    modes: int = 1000
    realizations: int = 10000
    traj: int = 10000
    steps: int = 0
    dt: float = 0.0
    seed: int = 1
    format: str = "csv"
    out: str = ""

    def validate(self):
        if self.command not in COMMANDS:
            raise _CliError(f"unknown command {self.command!r}")
        for key in ("gamma", "omega0", "temp", "hbar", "kb", "mass",
                    "omega_max", "cutoff"):
            if not 0 < getattr(self, key) < math.inf:
                raise _CliError(f"{key} must be positive and finite")
        for key in ("modes", "realizations", "traj"):
            if getattr(self, key) < 1:
                raise _CliError(f"{key} must be >= 1")
        if self.steps < 0:
            raise _CliError("steps must be nonnegative (0 selects the default)")
        if not 0 <= self.dt < math.inf:
            raise _CliError("dt must be nonnegative and finite (0 selects the default)")
        if self.seed < 0:
            raise _CliError("seed must be nonnegative")
        if self.format not in ("csv", "json"):
            raise _CliError("format must be csv or json")
        if not self.gammas or not all(0 < g < math.inf for g in self.gammas):
            raise _CliError("gammas must be positive and finite")
        if self.grid:
            parse_grid(self.grid)
        return self

    def to_params(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            if f.name == "command":
                continue
            out[f.name] = getattr(self, f.name)
        return out

    @classmethod
    def from_params(cls, command: str, raw: dict) -> "RunConfig":
        """Build from string values, rejecting unknown keys."""
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in raw.items():
            if key == "command" or key not in types:
                raise _CliError(f"unknown config key {key!r}")
            kwargs[key] = _parse_field(key, value)
        return cls(command=command, **kwargs).validate()

    def system(self) -> SystemSpec:
        return SystemSpec(mass=self.mass, omega0=self.omega0,
                          temperature=self.temp, hbar=self.hbar, kB=self.kb)

    def quad_config(self) -> QuadratureConfig:
        return QuadratureConfig(omega_max=self.omega_max)


def _parse_field(key: str, value):
    if isinstance(value, (int, float, tuple)):
        return value
    text = str(value).strip()
    if key in ("grid", "format", "out"):
        return text
    if key == "gammas":
        try:
            return tuple(float(part) for part in text.split(",") if part)
        except ValueError as exc:
            raise _CliError(f"bad gammas list {text!r}") from exc
    if key in ("modes", "realizations", "traj", "steps", "seed"):
        try:
            return int(text)
        except ValueError as exc:
            raise _CliError(f"{key} must be an integer, got {text!r}") from exc
    try:
        return float(text)
    except ValueError as exc:
        raise _CliError(f"{key} must be a number, got {text!r}") from exc


def parse_grid(spec: str) -> np.ndarray:
    """Parse 'start:stop:count' into a uniform grid."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise _CliError(f"grid must be start:stop:count, got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise _CliError(f"bad grid {spec!r}") from exc
    if count < 2 or not stop > start:
        raise _CliError("grid needs stop > start and count >= 2")
    return np.linspace(start, stop, count)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="qlesim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=str, default=None,
                       help="flat key=value file; flags override it")
        p.add_argument("--gamma", type=float, default=None, help="damping rate")
        p.add_argument("--omega0", type=float, default=None, help="oscillator frequency")
        p.add_argument("--temp", type=float, default=None, help="temperature")
        p.add_argument("--hbar", type=float, default=None, help="Planck constant")
        p.add_argument("--kb", type=float, default=None, help="Boltzmann constant")
        p.add_argument("--mass", type=float, default=None, help="oscillator mass")
        p.add_argument("--omega-max", dest="omega_max", type=float, default=None,
                       help="frequency cutoff for divergent-tail integrals")
        p.add_argument("--grid", type=str, default=None,
                       help="start:stop:count grid (command-specific meaning)")
        p.add_argument("--seed", type=int, default=None, help="RNG seed")
        p.add_argument("--format", type=str, default=None, choices=("csv", "json"))
        p.add_argument("--out", type=str, default=None,
                       help="output path (directory for scan); stdout if omitted")

    specs = {
        "dist": "dimensionless energy densities over a frequency-ratio grid",
        "corr": "correlation functions vs the weak-coupling closed form",
        "energy": "channel energies over a damping-ratio sweep",
        "sde": "Markovian SDE ensemble moment report",
        "rwa": "rotating-wave ensemble moment report",
        "microbath": "finite-bath noise statistics and memory-dynamics moments",
        "scan": "write the standard figure tables into a directory",
    }
    parsers = {}
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        parsers[name] = p
    for name in ("dist", "energy", "scan"):
        parsers[name].add_argument("--gammas", type=str, default=None,
                                   help="comma list of damping ratios")
    for name in ("sde", "rwa"):
        parsers[name].add_argument("--traj", type=int, default=None,
                                   help="number of trajectories")
        parsers[name].add_argument("--steps", type=int, default=None,
                                   help="samples per trajectory")
    parsers["microbath"].add_argument("--steps", type=int, default=None,
                                      help="grid steps: moments at steps * dt, dump at every step")
    for name in ("sde", "rwa", "microbath"):
        parsers[name].add_argument("--dt", type=float, default=None,
                                   help="time step (0 selects the default)")
        parsers[name].add_argument("--dump-traj", dest="dump_traj", type=str,
                                   default=None, help="write sample trajectories to CSV")
        parsers[name].add_argument("--dump-count", dest="dump_count", type=int,
                                   default=1, help="trajectories to dump")
    parsers["microbath"].add_argument("--modes", type=int, default=None,
                                      help="bath modes in the discretization")
    parsers["microbath"].add_argument("--realizations", type=int, default=None,
                                      help="noise/GLE realizations")
    parsers["microbath"].add_argument("--cutoff", type=float, default=None,
                                      help="bath cutoff frequency")
    return parser


def config_from_args(args) -> RunConfig:
    if getattr(args, "dump_count", 1) < 1:
        raise _CliError("dump-count must be >= 1")
    raw = io.parse_config_text(Path(args.config).read_text()) if args.config else {}
    fields = {f.name for f in dataclasses.fields(RunConfig)} - {"command"}
    raw.update((k, v) for k, v in vars(args).items() if k in fields and v is not None)
    return RunConfig.from_params(args.command, raw)


# ---------------------------------------------------------------------------
# command implementations


def run_dist(cfg: RunConfig):
    lam = parse_grid(cfg.grid or "0:10:2000")
    rows = []
    for damping in cfg.gammas:
        pk = fdt.pk_density(lam, damping)
        pp = fdt.pp_density(lam, damping)
        for i in range(lam.size):
            rows.append((damping, float(lam[i]), float(pk[i]), float(pp[i])))
    columns = ("Gamma", "Lambda", "Pk", "Pp")
    units = ("gamma/omega0", "omega/omega0", "dimensionless", "dimensionless")
    return columns, units, rows, "Gamma"


def run_corr(cfg: RunConfig):
    taus = parse_grid(cfg.grid or "0:10:41")
    system = cfg.system()
    bath = BathSpec.strict_ohmic(cfg.gamma)
    qcfg = cfg.quad_config()
    cx0, cv0 = fdt.weak_limit_correlation(0.0, system)
    rows = []
    for tau in taus:
        cx = fdt.position_correlation(tau, system, bath, qcfg)
        cv = fdt.velocity_correlation(tau, system, bath, qcfg)
        wx, wv = fdt.weak_limit_correlation(tau, system)
        rows.append((float(tau), cx, cv, wx, wv,
                     abs(cx - wx) / cx0, abs(cv - wv) / cv0))
    columns = ("tau", "Cx", "Cv", "Cx_weak", "Cv_weak", "dev_x", "dev_v")
    units = ("time", "length^2", "(length/time)^2", "length^2",
             "(length/time)^2", "relative to C(0)", "relative to C(0)")
    return columns, units, rows, None


def run_energy(cfg: RunConfig):
    system = cfg.system()
    qcfg = cfg.quad_config()
    e_weak = fdt.weak_coupling_energy(system)
    rows = []
    for damping in sorted(cfg.gammas, reverse=True):
        bath = BathSpec.strict_ohmic(damping * system.omega0)
        split = fdt.mean_energies(system, bath, qcfg)
        rows.append((damping, split.ek, split.ep, split.ek / split.ep, e_weak))
    columns = ("Gamma", "Ek", "Ep", "Ek_over_Ep", "E_weak")
    units = ("gamma/omega0", "energy", "energy", "dimensionless", "energy")
    return columns, units, rows, None


def _sde_rows(params, dt, steps, traj, seed):
    res = markovian.simulate_sde(params, dt, steps, traj, seed)
    x2_ref, v2_ref = markovian.stationary_moments_analytic(params)
    classical = markovian.noise_intensity_classical(params.system, params.gamma)
    return [
        ("x2", res["x2"].mean, res["x2"].se, res["x2"].n, x2_ref),
        ("v2", res["v2"].mean, res["v2"].se, res["v2"].n, v2_ref),
        ("noise_intensity", params.noise, 0.0, 1, params.noise),
        ("noise_intensity_classical", classical, 0.0, 1, classical),
    ]


def _rwa_rows(params, dt, steps, traj, seed):
    res = rwa_mod.simulate_rwa(params, dt, steps, traj, seed)
    x2_ref, p2_ref = rwa_mod.rwa_stationary_analytic(params)
    return [
        ("x2", res["x2"].mean, res["x2"].se, res["x2"].n, x2_ref),
        ("p2", res["p2"].mean, res["p2"].se, res["p2"].n, p2_ref),
        ("xp", res["xp"].mean, res["xp"].se, res["xp"].n, 0.0),
        ("ehrenfest_residual", res["ehrenfest"].mean, res["ehrenfest"].se,
         res["ehrenfest"].n, rwa_mod.ehrenfest_residual_exact(params, dt)),
    ]


# command -> (parameter class, report rows, trajectory sampler, dump columns)
LINEAR_MODELS = {
    "sde": (markovian.MarkovParams, _sde_rows, markovian.sample_trajectories,
            ("x", "v", "f")),
    "rwa": (rwa_mod.RwaParams, _rwa_rows, rwa_mod.sample_trajectories,
            ("x", "p", "f_x", "f_p")),
}


def run_linear_sde(cfg: RunConfig, dump_traj=None, dump_count=1):
    """Moment report of the Markovian (``sde``) or rotating-wave (``rwa``) ensemble."""
    params_cls, report, sample, dump_columns = LINEAR_MODELS[cfg.command]
    params = params_cls.from_system(cfg.system(), cfg.gamma)
    dt = cfg.dt or 1.0 / cfg.gamma
    steps = cfg.steps or 1000
    rows = report(params, dt, steps, cfg.traj, cfg.seed)
    if dump_traj:
        times, *series = sample(params, dt, min(steps, 1000), min(dump_count, cfg.traj),
                                cfg.seed)
        _write_trajectories(dump_traj, dump_columns, times, series)
    columns = ("quantity", "value", "std_error", "n", "reference")
    units = ("name", "natural units", "natural units", "count", "analytic")
    return columns, units, rows, None


def run_microbath(cfg: RunConfig, dump_traj=None, dump_count=1):
    system = cfg.system()
    bath = BathSpec.cutoff_ohmic(cfg.gamma, cfg.cutoff, system_mass=system.mass)
    modes = discretize_bath(bath, cfg.modes)
    dt = cfg.dt or 0.09 / cfg.cutoff
    n_steps = cfg.steps or int(round(20.0 / cfg.gamma / dt))
    grid = microbath.TrajectoryGrid(dt=dt, n_steps=n_steps)
    final = None
    if dump_traj:
        # the dump's normal modes also give the ensemble's x(T), v(T) rows;
        # they and the series are freed before the ensemble pass allocates
        normal_modes = microbath._NormalModes(modes, system)
        times, *series = microbath.sample_trajectories(
            modes, system, grid, min(dump_count, cfg.realizations), cfg.seed,
            _normal_modes=normal_modes)
        _write_trajectories(dump_traj, ("x", "v", "f"), times, series)
        final = normal_modes.response(np.array([grid.dt * grid.n_steps]), 0.0)
        del normal_modes, times, series

    taus = np.linspace(0.0, 5.0 / system.omega0, 11)
    origins = np.arange(0.0, 20.0001, 0.5) / system.omega0
    stats, res = microbath.ensemble_stats(modes, system, grid, taus, cfg.realizations, cfg.seed,
                                          origins=origins, _final=final)

    rows = []
    for tau, mean_est, corr_est in zip(stats["taus"], stats["mean"], stats["autocorr"]):
        ref = microbath.noise_autocorrelation_quadrature(system, bath, tau)
        rows.append(("noise_mean", float(tau), mean_est.mean, mean_est.se, 0.0))
        rows.append(("noise_autocorr", float(tau), corr_est.mean, corr_est.se, ref))

    x2_ref = fdt.position_correlation(0.0, system, bath)
    v2_ref = fdt.velocity_correlation(0.0, system, bath)
    rows.append(("gle_moment_x2", grid.dt * grid.n_steps, res["x2"].mean,
                 res["x2"].se, x2_ref))
    rows.append(("gle_moment_v2", grid.dt * grid.n_steps, res["v2"].mean,
                 res["v2"].se, v2_ref))

    columns = ("section", "key", "value", "std_error", "reference")
    units = ("name", "time or label", "natural units", "natural units", "quadrature")
    return columns, units, rows, "section"


def _write_trajectories(path, names, times, series):
    with open(path, "w") as fh:
        fh.write(",".join(("realization", "t", *names)) + "\n")
        for j in range(series[0].shape[1]):
            for i in range(times.size):
                cells = [times[i]] + [s[i, j] for s in series]
                fh.write(f"{j}," + ",".join(io.format_number(float(c)) for c in cells) + "\n")


RUNNERS = {
    "dist": run_dist,
    "corr": run_corr,
    "energy": run_energy,
}


def run_scan(cfg: RunConfig):
    """Write the figure-reproduction tables into the output directory."""
    if not cfg.out:
        raise _CliError("scan requires --out DIRECTORY")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, command in (("dist", "dist"), ("energy", "energy"), ("corr", "corr")):
        sub = dataclasses.replace(cfg, command=command, out="", grid="")
        if command == "corr":
            sub = dataclasses.replace(sub, gamma=1e-4 * cfg.omega0)
        columns, units, rows, block = RUNNERS[command](sub)
        path = out_dir / f"{name}.{cfg.format}"
        with open(path, "w") as fh:
            io.write_table(fh, command, sub.to_params(), columns, units, rows,
                           fmt=cfg.format, block_column=block)
        written.append(str(path))
    return written


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = config_from_args(args)
    except QlesimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        with warnings.catch_warnings():
            # a library warning prints as one line, in the style of the error lines
            warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                             file=sys.stderr)
            if cfg.command == "scan":
                for path in run_scan(cfg):
                    print(path)
                return EXIT_OK
            if cfg.command in RUNNERS:
                columns, units, rows, block = RUNNERS[cfg.command](cfg)
            else:
                run = run_microbath if cfg.command == "microbath" else run_linear_sde
                columns, units, rows, block = run(cfg, args.dump_traj, args.dump_count)
        with open(cfg.out, "w") if cfg.out else contextlib.nullcontext(sys.stdout) as fh:
            io.write_table(fh, cfg.command, cfg.to_params(), columns, units,
                           rows, fmt=cfg.format, block_column=block)
    except (ConvergenceError, QuadratureError, UnstableIntegrationError,
            FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except QlesimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
