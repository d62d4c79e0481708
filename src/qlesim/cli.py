"""Command-line front end emitting reproducible CSV/JSON tables.

Subcommands map one-to-one onto the library: ``dist`` (dimensionless
energy densities on a frequency-ratio grid), ``corr`` (correlation
functions against their weak-coupling closed forms), ``energy`` (channel
energies over a damping sweep), ``sde`` / ``rwa`` (Monte Carlo moment
reports with standard errors), ``microbath`` (finite-bath noise
statistics and memory-dynamics moments) and ``scan`` (the standard
four-damping figure set written into a directory).  ``sde``, ``rwa`` and
``microbath`` all write sample trajectories to CSV with ``--dump-traj``:
``sde`` and ``rwa`` at most their first 1,000 steps, ``microbath`` every step.
Each key of :class:`RunConfig` is declared once, in its field, which says
which commands take it as a flag; flags and config lines are typed alike.

Every run echoes its full parameter block as ``# key=value`` comment
lines that re-parse as a config file; identical parameters and seed give
identical output bytes.  Exit codes: 1 validation, 2 numeric failure,
3 I/O.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import sys
import warnings
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

# command -> its help; the parsers take a RunConfig key as a flag where its field says so
COMMANDS = {
    "dist": "dimensionless energy densities over a frequency-ratio grid",
    "corr": "correlation functions vs the weak-coupling closed form",
    "energy": "channel energies over a damping-ratio sweep",
    "sde": "Markovian SDE ensemble moment report",
    "rwa": "rotating-wave ensemble moment report",
    "microbath": "finite-bath noise statistics and memory-dynamics moments",
    "scan": "write the standard figure tables into a directory",
}
_SAMPLED = ("sde", "rwa", "microbath")  # the commands that step trajectories and dump them
# largest microbath mode phase w t: cos and sin there err by about 1e9 * eps = 2e-7 rad
MAX_PHASE = 1e9


class _CliError(DomainError):
    """Validation failure raised during argument handling."""


def _flag(default, help_text, *commands):
    """A RunConfig field: the default, whose type types the key's flag and config
    values, the flag's help, and the commands whose parsers take the flag (every
    command when none is named).  A config file takes every key for every command."""
    return dataclasses.field(default=default, metadata={"help": help_text,
                                                        "commands": commands or tuple(COMMANDS)})


@dataclasses.dataclass
class RunConfig:
    """Validated parameters of one CLI run; each field is one key, declared once."""

    command: str
    gamma: float = _flag(0.1, "damping rate")
    omega0: float = _flag(1.0, "oscillator frequency")
    temp: float = _flag(1.0, "temperature")
    hbar: float = _flag(1.0, "Planck constant")
    kb: float = _flag(1.0, "Boltzmann constant")
    mass: float = _flag(1.0, "oscillator mass")
    omega_max: float = _flag(1000.0, "frequency cutoff for divergent-tail integrals")
    grid: str = _flag("", "start:stop:count grid (command-specific meaning)")
    gammas: tuple = _flag(FIGURE_DAMPINGS, "comma list of damping ratios", "dist", "energy", "scan")
    cutoff: float = _flag(3.0, "bath cutoff frequency", "microbath")
    modes: int = _flag(1000, "bath modes in the discretization", "microbath")
    realizations: int = _flag(10000, "noise/GLE realizations", "microbath")
    traj: int = _flag(10000, "number of trajectories", "sde", "rwa")
    steps: int = _flag(0, "time steps (0 selects the default); microbath reports the "
                          "moments at steps * dt", *_SAMPLED)
    dt: float = _flag(0.0, "time step (0 selects the default)", *_SAMPLED)
    seed: int = _flag(1, "RNG seed")
    format: str = _flag("csv", "output format: csv or json")
    out: str = _flag("", "output path (directory for scan); stdout if omitted")

    def validate(self):
        if self.command not in COMMANDS:
            raise _CliError(f"unknown command {self.command!r}")
        for key in ("gamma", "omega0", "temp", "hbar", "kb", "mass",
                    "omega_max", "cutoff"):
            if not 0 < getattr(self, key) < math.inf:
                raise _CliError(f"{key} must be positive and finite")
        if not _is_normal(self.kb * self.temp):
            raise _CliError("kb*temp is not a positive normal float")
        # the moments and the loss square these scales; once (m*w0^2)^2 is
        # normal, m*w0 is nonzero, so the last division cannot fail
        m, w0 = self.mass, self.omega0
        if not (_square_is_normal(m) and _square_is_normal(m * w0 * w0)
                and _square_is_normal(self.hbar / (m * w0))):
            raise _CliError("the square of mass, mass*omega0^2 or hbar/(mass*omega0) "
                            "is not a finite normal float")
        # likewise E/(m w0^2), E/m, m E and the finite bath's m gamma cutoff E
        x = self.hbar * w0 / (2.0 * self.kb * self.temp)
        energy = 0.5 * self.hbar * w0 / math.tanh(x) if x else math.inf
        scales = [energy / (m * w0 * w0), energy / m, m * energy]
        if self.command == "microbath":
            scales.append(m * self.gamma * self.cutoff * energy)
        if not all(map(_square_is_normal, scales)):
            raise _CliError("the square of E/(mass*omega0^2), E/mass, mass*E or (microbath) "
                            "mass*gamma*cutoff*E is not a finite normal float, "
                            "E = (hbar*omega0/2) coth(hbar*omega0/(2*kb*temp))")
        # the FDT quadrature's octaves start below pi/a over omega0, a = hbar/(2 kb temp),
        # which can overflow, or underflow to 0
        a = self.system().thermal_coth_scale
        if self.command in ("corr", "energy", "microbath", "scan") and not (
                a and _is_normal(math.pi / a / 4.0 / w0)):
            raise _CliError("pi*kb*temp/(2*hbar*omega0), the FDT quadrature's lowest edge "
                            "over omega0, is not a normal float")
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
        # P_k and P_p square each ratio, and the loss (gamma*omega)^2 up to omega_max
        if self.command in ("dist", "scan") and not all(map(_square_is_normal, self.gammas)):
            raise _CliError("the square of a gammas ratio is not a finite normal float")
        tops = {"corr": [self.gamma], "energy": [g * w0 for g in self.gammas],
                "scan": [g * w0 for g in (*self.gammas, 1e-4)]}.get(self.command, [])
        if not all(g * self.omega_max * g * self.omega_max < math.inf for g in tops):
            raise _CliError("the square of gamma*omega_max is not finite (gamma = ratio*omega0)")
        if self.grid:
            parse_grid(self.grid)
        if self.command == "microbath":
            BathSpec.cutoff_ohmic(self.gamma, self.cutoff, system_mass=m)  # a finite coupling
            dt = self.dt or 0.09 / self.cutoff
            if not (self.steps or 20.0 / self.gamma / dt < math.inf):
                raise _CliError(f"the default steps 20/(gamma*dt) are not finite at dt = {dt:.3g}")
            end = self.steps * dt if self.steps else 20.0 / self.gamma
            phase = self.cutoff * max(end, 25.0 / w0)  # at the grid end or last noise time
            if not phase <= MAX_PHASE:
                raise _CliError(f"cutoff * max(steps * dt, 25/omega0) = {phase:.3g} exceeds "
                                f"{MAX_PHASE:.0e}: mode phases that large are not resolved")
        # an ensemble's standard error takes two members
        for key, least in (("modes", 1), ("realizations", 2), ("traj", 2)):
            if getattr(self, key) < least:
                raise _CliError(f"{key} must be >= {least}")
        return self

    def to_params(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
                if f.name != "command"}

    @classmethod
    def from_params(cls, command: str, raw: dict) -> "RunConfig":
        """Build from string values, flags and config lines alike, rejecting unknown keys."""
        fields = {f.name: f for f in dataclasses.fields(cls) if f.name != "command"}
        kwargs = {}
        for key, value in raw.items():
            if key not in fields:
                raise _CliError(f"unknown config key {key!r}")
            kwargs[key] = _parse_field(key, fields[key].default, value)
        return cls(command=command, **kwargs).validate()

    def system(self) -> SystemSpec:
        return SystemSpec(mass=self.mass, omega0=self.omega0,
                          temperature=self.temp, hbar=self.hbar, kB=self.kb)

    def quad_config(self) -> QuadratureConfig:
        # abs_tol in the command's unit of C, hbar / (m omega0): a fixed 1e-12
        # bounds nothing once C itself is far below it, as at a large mass
        unit = self.hbar / (self.mass * self.omega0)
        return QuadratureConfig(abs_tol=QuadratureConfig.abs_tol * unit, omega_max=self.omega_max)


def _is_normal(x: float) -> bool:
    return sys.float_info.min <= x < math.inf


def _square_is_normal(x: float) -> bool:
    return _is_normal(x * x)


_KINDS = {int: "an integer", float: "a number", tuple: "a comma list of numbers"}


def _parse_field(name: str, default, text: str):
    """A flag's or config line's text, typed as the key's default is."""
    kind, text = type(default), text.strip()
    try:
        if kind is tuple:
            return tuple(float(part) for part in text.split(",") if part)
        return kind(text)
    except ValueError as exc:
        raise _CliError(f"{name} must be {_KINDS[kind]}, got {text!r}") from exc


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


def _flags(command):
    """The RunConfig fields that ``command``'s parser takes as flags."""
    return [f for f in dataclasses.fields(RunConfig) if command in f.metadata.get("commands", ())]


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: callers must not mutate it.
    Its flags keep their values as text; :meth:`RunConfig.from_params` types them."""
    parser = _Parser(prog="qlesim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value file; flags override it")
        for f in _flags(name):
            p.add_argument("--" + f.name.replace("_", "-"), help=f.metadata["help"])
        if name in _SAMPLED:
            p.add_argument("--dump-traj", help="write sample trajectories to CSV: sde and "
                           "rwa at most their first 1000 steps, microbath every step")
            p.add_argument("--dump-count", default="1", help="trajectories to dump")
    return parser


def config_from_args(args) -> RunConfig:
    args.dump_count = _parse_field("dump-count", 1, getattr(args, "dump_count", "1"))
    if args.dump_count < 1:
        raise _CliError("dump-count must be >= 1")
    raw = io.parse_config_text(Path(args.config).read_text()) if args.config else {}
    raw.update((f.name, getattr(args, f.name)) for f in _flags(args.command)
               if getattr(args, f.name) is not None)
    return RunConfig.from_params(args.command, raw)


# ---------------------------------------------------------------------------
# command implementations: each returns (columns, units, blocks, block column), the
# body as io.write_table's blocks, a float64 array a block where every cell is a float


def run_dist(cfg: RunConfig):
    lam = parse_grid(cfg.grid or "0:10:2000")
    blocks = [(damping, np.column_stack((lam, fdt.pk_density(lam, damping),
                                         fdt.pp_density(lam, damping))))
              for damping in cfg.gammas]
    columns = ("Gamma", "Lambda", "Pk", "Pp")
    units = ("gamma/omega0", "omega/omega0", "dimensionless", "dimensionless")
    return columns, units, blocks, "Gamma"


def run_corr(cfg: RunConfig):
    taus = parse_grid(cfg.grid or "0:10:41")
    system = cfg.system()
    bath = BathSpec.strict_ohmic(cfg.gamma)
    qcfg = cfg.quad_config()
    cx0, cv0 = fdt.weak_limit_correlation(0.0, system)
    cx = fdt.position_correlation(taus, system, bath, qcfg)
    cv = fdt.velocity_correlation(taus, system, bath, qcfg)
    wx, wv = fdt.weak_limit_correlation(taus, system)
    rows = np.column_stack((taus, cx, cv, wx, wv, np.abs(cx - wx) / cx0, np.abs(cv - wv) / cv0))
    columns = ("tau", "Cx", "Cv", "Cx_weak", "Cv_weak", "dev_x", "dev_v")
    units = ("time", "length^2", "(length/time)^2", "length^2",
             "(length/time)^2", "relative to C(0)", "relative to C(0)")
    return columns, units, [(None, rows)], None


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
    return columns, units, [(None, rows)], None


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


# command -> (report rows, trajectory sampler, dump columns)
LINEAR_MODELS = {
    "sde": (_sde_rows, markovian.sample_trajectories, ("x", "v", "f")),
    "rwa": (_rwa_rows, rwa_mod.sample_trajectories, ("x", "p", "f_x", "f_p")),
}


def run_linear_sde(cfg: RunConfig, dump_traj=None, dump_count=1):
    """Moment report of the Markovian (``sde``) or rotating-wave (``rwa``) ensemble."""
    report, sample, dump_columns = LINEAR_MODELS[cfg.command]
    params = markovian.MarkovParams(cfg.system(), cfg.gamma)
    dt = cfg.dt or 1.0 / cfg.gamma
    steps = cfg.steps or 1000
    rows = report(params, dt, steps, cfg.traj, cfg.seed)
    if dump_traj:
        times, *series = sample(params, dt, min(steps, 1000), min(dump_count, cfg.traj),
                                cfg.seed)
        _write_trajectories(dump_traj, dump_columns, times, series)
    columns = ("quantity", "value", "std_error", "n", "reference")
    units = ("name", "natural units", "natural units", "count", "analytic")
    return columns, units, [(None, rows)], None


def run_microbath(cfg: RunConfig, dump_traj=None, dump_count=1):
    system = cfg.system()
    bath = BathSpec.cutoff_ohmic(cfg.gamma, cfg.cutoff, system_mass=system.mass)
    modes = discretize_bath(bath, cfg.modes)
    dt = cfg.dt or 0.09 / cfg.cutoff
    n_steps = cfg.steps or int(round(20.0 / cfg.gamma / dt))
    grid = microbath.TrajectoryGrid(dt=dt, n_steps=n_steps)
    taus = np.linspace(0.0, 5.0 / system.omega0, 11)
    origins = np.arange(0.0, 20.0001, 0.5) / system.omega0
    stats, res, dump = microbath.ensemble_stats(
        modes, system, grid, taus, cfg.realizations, cfg.seed, origins=origins,
        n_dump=min(dump_count, cfg.realizations) if dump_traj else 0)
    if dump is not None:
        times, *series = dump
        _write_trajectories(dump_traj, ("x", "v", "f"), times, series)

    taus, t_end = stats["taus"], grid.dt * grid.n_steps
    refs = microbath.noise_autocorrelation_quadrature(system, bath, taus)
    x2_ref = fdt.position_correlation(0.0, system, bath)
    v2_ref = fdt.velocity_correlation(0.0, system, bath)
    # one float block a section: one block line each, and one format call
    blocks = [(section, np.array(rows, dtype=float)) for section, rows in (
        ("noise_mean", [(t, e.mean, e.se, 0.0) for t, e in zip(taus, stats["mean"])]),
        ("noise_autocorr", [(t, e.mean, e.se, ref)
                            for t, e, ref in zip(taus, stats["autocorr"], refs)]),
        ("gle_moment_x2", [(t_end, res["x2"].mean, res["x2"].se, x2_ref)]),
        ("gle_moment_v2", [(t_end, res["v2"].mean, res["v2"].se, v2_ref)]))]

    columns = ("section", "key", "value", "std_error", "reference")
    units = ("name", "time or label", "natural units", "natural units", "quadrature")
    return columns, units, blocks, "section"


_DUMP_SLAB = 128  # time rows per format call of a dump, so its memory does not grow with --steps


def _write_trajectories(path, names, times, series):
    with open(path, "w") as fh:
        fh.write(",".join(("realization", "t", *names)) + "\n")
        for j in range(series[0].shape[1]):
            for a in range(0, len(times), _DUMP_SLAB):
                slab = [times[a:a + _DUMP_SLAB]] + [s[a:a + _DUMP_SLAB, j] for s in series]
                fh.write(io.format_rows(np.column_stack(slab), prefix=f"{j},"))


# command -> its table; the sampled commands also take (dump_traj, dump_count)
RUNNERS = {
    "dist": run_dist,
    "corr": run_corr,
    "energy": run_energy,
    "sde": run_linear_sde,
    "rwa": run_linear_sde,
    "microbath": run_microbath,
}


def run_scan(cfg: RunConfig):
    """Write the figure-reproduction tables into the output directory."""
    if not cfg.out:
        raise _CliError("scan requires --out DIRECTORY")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for command in ("dist", "energy", "corr"):
        sub = dataclasses.replace(cfg, command=command, out="", grid="",
                                  gamma=1e-4 * cfg.omega0 if command == "corr" else cfg.gamma)
        columns, units, blocks, block = RUNNERS[command](sub)
        path = out_dir / f"{command}.{cfg.format}"
        with open(path, "w") as fh:
            io.write_table(fh, command, sub.to_params(), columns, units, blocks,
                           fmt=cfg.format, block_column=block)
        written.append(str(path))
    return written


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = config_from_args(args)
        with warnings.catch_warnings():
            # a library warning prints as one line, in the style of the error lines
            warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                             file=sys.stderr)
            if cfg.command == "scan":
                for path in run_scan(cfg):
                    print(path)
                return EXIT_OK
            dump = (args.dump_traj, args.dump_count) if cfg.command in _SAMPLED else ()
            columns, units, blocks, block = RUNNERS[cfg.command](cfg, *dump)
        with open(cfg.out, "w") if cfg.out else contextlib.nullcontext(sys.stdout) as fh:
            io.write_table(fh, cfg.command, cfg.to_params(), columns, units,
                           blocks, fmt=cfg.format, block_column=block)
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
