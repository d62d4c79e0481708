"""The benchmark workloads: program calls, then checks of their output.

Each workload is a closed loop of one client: it makes its calls back to
back in one process, through ``qlesim.cli.main(argv)`` or the public
library API, and waits for each before the next.  ``run`` makes the timed
calls; ``check`` compares every reported value with an exact expectation
from :mod:`exact`, outside the timed region.  A call that raises or exits
non-zero fails every check on its output.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
from qlesim import cli, fdt
from qlesim.bath import BathSpec, SystemSpec, discretize_bath
from qlesim.quadrature import QuadratureConfig

import exact

# a Monte Carlo value must lie within this many standard errors of its
# exact expectation
MC_SIGMAS = 5.0
# a printed reference column is exact up to the 12 significant digits
# the CLI prints
REF_RTOL = 1e-9
# scan and sweep correlations: within this many gamma * C(0) of the weak
# limit (the worst resolved value at the seed commit is 2.41)
WEAK_LIMIT_SLACK = 10.0
# strict-Ohmic potential energy against the Matsubara sum, relative
ENERGY_RTOL = 1e-6
# criterion 6's band for the continuum noise reference, share of C_f(0)
NOISE_REF_BAND = 0.05


@dataclass
class Call:
    """One timed call into the program."""

    name: str
    seconds: float
    ok: bool
    stdout: str = ""
    error: str = ""
    value: float | None = None


def cli_call(name, argv):
    """Run ``qlesim.cli.main(argv)`` in-process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a crash fails this call's checks, not the run
        seconds = time.perf_counter() - start
        return Call(name, seconds, False, out.getvalue(), f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    error = "" if code == 0 else f"exit {code}: {err.getvalue().strip()}"
    return Call(name, seconds, code == 0, out.getvalue(), error)


def library_call(name, fn, *args):
    start = time.perf_counter()
    try:
        value = fn(*args)
    except Exception as exc:  # a raise fails this call's check, not the run
        seconds = time.perf_counter() - start
        return Call(name, seconds, False, error=f"{type(exc).__name__}: {exc}")
    return Call(name, time.perf_counter() - start, True, value=float(value))


def parse_table(text):
    """Rows of a CLI CSV table as dicts; '#' lines are skipped."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return []
    columns = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        row = {}
        for key, cell in zip(columns, cells):
            try:
                row[key] = float(cell)
            except ValueError:
                row[key] = cell
        rows.append(row)
    return rows


def read_table(path):
    try:
        with open(path) as fh:
            return parse_table(fh.read())
    except OSError:
        return []


@dataclass
class Checks:
    """Outcomes of one pass's checks, in the order they were made."""

    results: list = field(default_factory=list)

    def add(self, check_id, ok, detail=""):
        self.results.append((check_id, bool(ok), detail))

    def near(self, check_id, value, expected, tol, what="exact"):
        """Pass when ``value`` is a finite number within ``tol`` of ``expected``."""
        if not isinstance(value, float) or not math.isfinite(value):
            self.add(check_id, False, f"no value ({value!r})")
            return
        ok = abs(value - expected) <= tol
        self.add(check_id, ok, f"{value:.9g} vs {what} {expected:.9g} (tol {tol:.3g})")

    def monte_carlo(self, check_id, row, expected):
        """Check (i): the estimate within MC_SIGMAS standard errors."""
        if row is None:
            self.add(check_id, False, "row missing")
            return
        se = row.get("std_error")
        if not isinstance(se, float) or not se >= 0.0:
            self.add(check_id, False, f"no standard error ({se!r})")
            return
        self.near(check_id, row.get("value"), expected, MC_SIGMAS * se)

    def reference(self, check_id, row, expected, tol=None):
        """Check (ii): the printed reference column against the exact value."""
        if row is None:
            self.add(check_id, False, "row missing")
            return
        tol = REF_RTOL * abs(expected) if tol is None else tol
        self.near(check_id, row.get("reference"), expected, tol)


def _by(rows, column, value):
    for row in rows:
        cell = row.get(column)
        if isinstance(cell, float) and abs(cell - value) <= 1e-9 * max(1.0, abs(value)):
            return row
        if cell == value:
            return row
    return None


def _relative_se(rows, quantity, column="quantity"):
    row = _by(rows, column, quantity)
    if row is None or not isinstance(row.get("value"), float) or not row["value"]:
        return None
    return row["std_error"] / abs(row["value"])


class LangevinMC:
    """Markovian SDE and RWA ensembles: the SDE layer in two shapes."""

    name = "langevin_mc"
    gamma = 0.1
    rwa_dt = 1.0
    dump_count = 2

    def __init__(self, seed, tmp):
        self.seed = seed
        self.dump = tmp / "rwa_dump.csv"
        self.osc = exact.Oscillator()
        self.ehrenfest = self.osc.rwa_ehrenfest(self.gamma, self.rwa_dt)

    def run(self):
        self.dump.unlink(missing_ok=True)
        seed = str(self.seed)
        return [
            cli_call("sde", ["sde", "--traj", "20000", "--seed", seed]),
            cli_call("rwa", ["rwa", "--traj", "256", "--steps", "20000",
                             "--dt", str(self.rwa_dt), "--dump-traj", str(self.dump),
                             "--dump-count", str(self.dump_count), "--seed", seed]),
        ]

    def tables(self, calls):
        return {c.name: parse_table(c.stdout) if c.ok else [] for c in calls}

    def check(self, calls, checks):
        osc, tables = self.osc, self.tables(calls)
        sde = tables["sde"]
        for quantity, expected in (("x2", osc.x2()), ("v2", osc.v2())):
            row = _by(sde, "quantity", quantity)
            checks.monte_carlo(f"sde.{quantity}.value", row, expected)
            checks.reference(f"sde.{quantity}.reference", row, expected)
        for quantity, expected in (
                ("noise_intensity", osc.noise_intensity(self.gamma)),
                ("noise_intensity_classical", osc.noise_intensity_classical(self.gamma))):
            row = _by(sde, "quantity", quantity)
            checks.near(f"sde.{quantity}.value", row and row.get("value"),
                        expected, REF_RTOL * expected)
            checks.reference(f"sde.{quantity}.reference", row, expected)

        rwa = tables["rwa"]
        for quantity, expected in (("x2", osc.x2()), ("p2", osc.p2()), ("xp", 0.0),
                                   ("ehrenfest_residual", self.ehrenfest)):
            row = _by(rwa, "quantity", quantity)
            checks.monte_carlo(f"rwa.{quantity}.value", row, expected)
            checks.reference(f"rwa.{quantity}.reference", row, expected)

        dumped = read_table(self.dump)
        realizations = {row.get("realization") for row in dumped}
        checks.add("rwa.dump_traj",
                   realizations == {float(i) for i in range(self.dump_count)},
                   f"{len(dumped)} rows, realizations {sorted(realizations, key=str)}"
                   if dumped else "no dump file with a header and rows")

    def mc_cost(self, calls):
        tables = self.tables(calls)
        return _mc_cost([(c.seconds, _relative_se(tables[c.name], "x2")) for c in calls])


class FiniteBath:
    """Criterion-6 finite bath: noise statistics and GLE moments."""

    name = "finite_bath"
    gamma = 0.5
    cutoff = 3.0
    modes = 1000
    taus = np.linspace(0.0, 5.0, 11)

    def __init__(self, seed, tmp):
        self.seed = seed
        osc = exact.Oscillator()
        bath = BathSpec.cutoff_ohmic(self.gamma, self.cutoff, system_mass=osc.mass)
        modes = discretize_bath(bath, self.modes)
        self.noise_corr = [
            exact.finite_bath_noise_correlation(osc, modes.omega, modes.mass,
                                                modes.coupling, tau)
            for tau in self.taus
        ]

    def run(self):
        return [cli_call("microbath", [
            "microbath", "--gamma", str(self.gamma), "--cutoff", str(self.cutoff),
            "--modes", str(self.modes), "--dt", "0.03", "--realizations", "2048",
            "--seed", str(self.seed)])]

    def check(self, calls, checks):
        (call,) = calls
        rows = parse_table(call.stdout) if call.ok else []
        band = NOISE_REF_BAND * self.noise_corr[0]
        for tau, expected in zip(self.taus, self.noise_corr):
            mean = _row(rows, "noise_mean", tau)
            corr = _row(rows, "noise_autocorr", tau)
            checks.monte_carlo(f"microbath.noise_mean.tau={tau:g}.value", mean, 0.0)
            checks.reference(f"microbath.noise_mean.tau={tau:g}.reference", mean, 0.0)
            checks.monte_carlo(f"microbath.noise_autocorr.tau={tau:g}.value", corr, expected)
            checks.reference(f"microbath.noise_autocorr.tau={tau:g}.reference", corr,
                             expected, tol=band)
        for section in ("gle_moment_x2", "gle_moment_v2"):
            row = next((r for r in rows if r.get("section") == section), None)
            ref = row.get("reference") if row else None
            checks.monte_carlo(f"microbath.{section}.value", row,
                               ref if isinstance(ref, float) else math.nan)

    def mc_cost(self, calls):
        (call,) = calls
        rows = parse_table(call.stdout) if call.ok else []
        return _mc_cost([(call.seconds, _relative_se(rows, "gle_moment_x2", "section"))])


def _row(rows, section, key):
    for row in rows:
        if row.get("section") == section and isinstance(row.get("key"), float) \
                and abs(row["key"] - key) <= 1e-9:
            return row
    return None


def _mc_cost(terms):
    """Seconds to 1% relative standard error: sum of t * (rse / 0.01)^2."""
    if any(rse is None for _, rse in terms):
        return None
    return sum(seconds * (rse / 0.01) ** 2 for seconds, rse in terms)


class FdtQuadrature:
    """The figure scan plus the strict-Ohmic weak-coupling sweep."""

    name = "fdt_quadrature"
    dampings = (1.0, 0.5, 0.125, 0.0125)
    dist_grid = np.linspace(0.0, 10.0, 2000)
    corr_taus = np.linspace(0.0, 10.0, 41)
    corr_gamma = 1e-4
    sweep_gammas = tuple(10.0**-k for k in range(2, 10))
    sweep_taus = (0.0, 1.0, 7.3)
    omega_max = 1e3

    def __init__(self, seed, tmp):
        self.seed = seed
        self.out = tmp / "scan"
        self.osc = exact.Oscillator()
        self.qcfg = QuadratureConfig(omega_max=self.omega_max)
        self.energy = {g: self.osc.ohmic_potential_energy(g) for g in self.dampings}
        # the seed orders the sweep; every value is independent of the order
        self.sweep = [(channel, g, tau) for g in self.sweep_gammas
                      for tau in self.sweep_taus for channel in ("Cx", "Cv")]
        random.Random(seed).shuffle(self.sweep)

    def run(self):
        shutil.rmtree(self.out, ignore_errors=True)
        calls = [cli_call("scan", ["scan", "--out", str(self.out), "--seed", str(self.seed)])]
        system = SystemSpec()
        for channel, gamma, tau in self.sweep:
            fn = fdt.position_correlation if channel == "Cx" else fdt.velocity_correlation
            calls.append(library_call(_sweep_id(channel, gamma, tau), fn, tau, system,
                                      BathSpec.strict_ohmic(gamma), self.qcfg))
        return calls

    def _weak_tol(self, gamma, c0):
        quad_tol = max(self.qcfg.abs_tol, self.qcfg.rel_tol * c0)
        return WEAK_LIMIT_SLACK * gamma * c0 + quad_tol

    def check(self, calls, checks):
        osc = self.osc
        scan_ok = calls[0].ok
        dist = read_table(self.out / "dist.csv") if scan_ok else []
        energy = read_table(self.out / "energy.csv") if scan_ok else []
        corr = read_table(self.out / "corr.csv") if scan_ok else []

        for g in self.dampings:
            rows = [r for r in dist if r.get("Gamma") == g]
            lam = np.array([r.get("Lambda") for r in rows], dtype=float)
            if lam.shape != self.dist_grid.shape or not np.allclose(lam, self.dist_grid,
                                                                    rtol=0, atol=1e-9):
                checks.add(f"scan.dist.Gamma={g:g}", False, f"{len(rows)} rows on another grid")
                continue
            worst = 0.0
            for column, density in (("Pk", exact.pk_density), ("Pp", exact.pp_density)):
                got = np.array([r.get(column) for r in rows], dtype=float)
                want = density(lam, g)
                worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want).clip(1e-300))))
            checks.add(f"scan.dist.Gamma={g:g}", worst <= REF_RTOL,
                       f"worst relative deviation {worst:.3g} over {len(rows)} rows")

        for g in self.dampings:
            row = _by(energy, "Gamma", g) or {}
            expected = self.energy[g]
            checks.near(f"scan.energy.Gamma={g:g}.Ep", row.get("Ep"), expected,
                        ENERGY_RTOL * expected, "Matsubara sum")
            checks.near(f"scan.energy.Gamma={g:g}.E_weak", row.get("E_weak"),
                        osc.weak_energy(), REF_RTOL * osc.weak_energy())

        cx0, cv0 = osc.weak_correlation(0.0)
        for tau in self.corr_taus:
            row = _by(corr, "tau", tau) or {}
            wx, wv = osc.weak_correlation(tau)
            for column, weak, c0 in (("Cx", wx, cx0), ("Cv", wv, cv0)):
                checks.near(f"scan.corr.tau={tau:g}.{column}", row.get(column), weak,
                            self._weak_tol(self.corr_gamma, c0), "weak limit")
                checks.near(f"scan.corr.tau={tau:g}.{column}_weak", row.get(f"{column}_weak"),
                            weak, REF_RTOL * c0)

        for call, (channel, gamma, tau) in zip(calls[1:], self.sweep):
            check_id = _sweep_id(channel, gamma, tau)
            weak = osc.weak_correlation(tau)[channel == "Cv"]
            c0 = cv0 if channel == "Cv" else cx0
            if not call.ok:
                checks.add(check_id, False, call.error[:120])
                continue
            checks.near(check_id, call.value, weak, self._weak_tol(gamma, c0), "weak limit")

    def mc_cost(self, calls):
        return None


def _sweep_id(channel, gamma, tau):
    return f"sweep.{channel}.gamma={gamma:.0e}.tau={tau:g}"


WORKLOADS = {w.name: w for w in (LangevinMC, FiniteBath, FdtQuadrature)}
