"""Finite-N microscopic bath: the k values a pass samples are one linear map of k normals.

A bath prepared in the displaced thermal state generates the noise

    f(t) = sum_j c_j [ s_j cos(w_j t) + (p_j / m_j w_j) sin(w_j t) ]

where s_j is the mode coordinate measured from its displaced equilibrium
c_j x(0) / (m_j w_j^2).  Sampling s_j and p_j as independent zero-mean
Gaussians with the thermal-state variances reproduces every symmetrized
noise statistic of the quantum bath; the antisymmetric (commutator) part
has no classical sample representation.

The memory equation of motion

    m x'' + Int_0^t mu(t - t') x'(t') dt' + m w0^2 x = f(t)

is not stepped: the oscillator and its modes (with the counterterm) form
one quadratic Hamiltonian, whose normal modes give x(t) and v(t) exactly at
any time (Ford, Kac & Mazur 1965; Ullersma 1966), with the same displaced
preparation q_j(0) = s_j + c_j x(0) / (m_j w_j^2).  The (N+1) x (N+1)
mass-weighted Hessian is an arrowhead matrix, C^T C for a C whose singular
values, the normal-mode frequencies, are the roots of a secular equation,
one between each two adjacent mode frequencies: LAPACK's dlasd4 finds each
in O(N) (R.-C. Li, LAPACK Working Note 89 (1993)).  Each eigenvector is a
closed form in its root, so the normal modes cost O(N^2) time (Gu &
Eisenstat, SIAM J. Matrix Anal. Appl. 16, 172 (1995); Jakovcevic Stor,
Slapnicar & Barlow, Linear Algebra Appl. 464 (2015)).

So f(t), x(t) and v(t) at any time are each mean + row @ z, where z holds
a realization's 2N standard normals (the s normals first) and the row
carries the thermal standard deviations; the exact moments are the row
norms, mean^2 + |row|^2.  :func:`ensemble_stats` is the one pass: it builds
the normal modes once and samples k values, x(T) and v(T) and then f at
sorted distinct times, with covariance R R^T for their rows R (the normal
modes' a block at a time).  It maps each (k, 64) tile of normals through
F = T^T, F F^T = R R^T, for T the QR factor of R^T: F is lower-triangular,
so x(T) and v(T) take the tile's first (2, 64) normals w alone.  F is
unique only for a full-rank Gram matrix, and at the CLI's lags R R^T has
rank 46 of 53, so a bitwise-equal sample needs bitwise-equal value rows:
rows that move by rounding re-map normals to values, and sampled cells
move (by far less than their standard errors).  The pass's dump of its
first realizations on the grid draws z given w: with zeta the stream's
next (2N, 64) normals and Q the orthonormal QR basis of the x(T), v(T)
rows, z = zeta + Q (w - Q^T zeta) is exactly N(0, I) and has Q^T z = w.
Realization i is column i % 64 of the (seed, i // 64) block stream of
:mod:`.sde`, so it depends on (seed, i) alone, and a pass accumulates on
that module's ensemble driver, so chunked and serial runs agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import BathKind, BathSpec, ModeSet, SystemSpec
from .errors import ConvergenceError, DomainError, UnstableIntegrationError, UnsupportedBathError
from .quadrature import QuadratureConfig, integrate_cosine, scaled_omega_coth
from .sde import _BLOCK, _SLAB_STEPS, _accumulate, _chunks, _draw

__all__ = [
    "TrajectoryGrid",
    "initial_slip",
    "noise_autocorrelation_quadrature",
    "ensemble_stats",
    "gle_moments_exact",
]


@dataclass(frozen=True)
class TrajectoryGrid:
    """Uniform time grid t_i = i * dt, i = 0..n_steps."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if not self.dt > 0:
            raise DomainError("dt must be positive")
        if self.n_steps < 1:
            raise DomainError("n_steps must be >= 1")

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)

    def check_resolves(self, modes: ModeSet):
        """Require dt * max mode frequency < 0.1 for a series sampled on the grid."""
        fastest = float(np.max(modes.omega))
        if self.dt * fastest >= 0.1:
            raise DomainError(
                f"dt * max mode frequency = {self.dt * fastest:.3f} must be < 0.1"
            )


def thermal_variances(modes: ModeSet, system: SystemSpec):
    """Per-mode variances of the displaced coordinate and the momentum.

    (hbar / 2 m_j w_j) coth(hbar w_j / 2 kB T) and
    (hbar m_j w_j / 2) coth(...); in the hbar -> 0 limit these reduce to
    the equipartition values kB T / (m_j w_j^2) and m_j kB T.
    """
    c = system.thermal_coth(modes.omega)
    var_s = system.hbar / (2.0 * modes.mass * modes.omega) * c
    var_p = system.hbar * modes.mass * modes.omega / 2.0 * c
    return var_s, var_p


def initial_slip(modes: ModeSet, x0: float, t):
    """Initial-slip force mu(t) * x0 from the discrete kernel.

    Under the displaced preparation this term is absorbed into the noise:
    f(t) = g(t) - mu(t) x0 holds exactly per realization, with g the noise
    of the undisplaced preparation.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("t must be nonnegative")
    weights = modes.kernel_weights()
    out = (np.cos(np.multiply.outer(t, modes.omega)) @ weights) * x0
    return out if out.ndim else float(out)


def noise_autocorrelation_quadrature(system: SystemSpec, bath: BathSpec, tau,
                                     cfg: QuadratureConfig | None = None):
    """Continuum symmetric noise autocorrelation (hbar/pi) Int J coth cos.

    At a float tau, or at each of a 1-D array of them.  Only cutoff-Ohmic
    baths are supported: the strict-Ohmic version is a delta at tau = 0 (a
    finite bath's exact correlation is the cosine sum over its modes instead).
    """
    if bath.kind is not BathKind.CUTOFF_OHMIC:
        raise UnsupportedBathError(
            "continuum noise autocorrelation requires a cutoff-Ohmic bath"
        )
    bath.check_system(system)
    cfg = cfg or QuadratureConfig()
    a = system.thermal_coth_scale
    slope = 3.0 * math.pi * bath.coupling**2 / (2.0 * bath.cutoff**3)
    integrand = lambda w: slope * scaled_omega_coth(w, a)
    edges = np.linspace(0.0, bath.cutoff, 9)
    value, _ = integrate_cosine(integrand, edges, cfg, tau, label="noise autocorrelation")
    return system.hbar / math.pi * value


def _noise_rows(modes: ModeSet, system: SystemSpec, times):
    """(len(times), 2N) rows of the noise: f at ``times`` is rows @ z."""
    sd_s, sd_p = np.sqrt(thermal_variances(modes, system))
    phases = np.multiply.outer(times, modes.omega)
    return np.hstack((np.cos(phases) * (modes.coupling * sd_s),
                      np.sin(phases) * (modes.coupling / (modes.mass * modes.omega) * sd_p)))


# the roots whose eigenvectors :func:`_arrowhead_eigen` builds together
_ROOT_BLOCK = 64


def _secular_roots(w0, z, sd):
    """(p, tau) with the roots W = p + tau of the secular equation
    1 - w0^2 / W^2 + sum_j z_j^2 / (sd_j^2 - W^2) = 0 for strictly increasing
    positive sd and positive z: the singular values of [[w0, 0], [z, diag(sd)]].

    They are those of diag(0, sd)^2 + y y^T, y = (w0, z), and LAPACK's dlasd4
    solves for each one (R.-C. Li, LAPACK Working Note 89 (1993)), returning
    every pole less W to full relative accuracy.  p is the nearer pole and
    tau = W - p, so that sd_j - W = (sd_j - p) - tau keeps its relative
    accuracy next to p.  At w0 = 0 the first root is W = 0 exactly, and the
    others are those of the problem without the pole at 0.
    """
    from scipy.linalg.lapack import dlasd4  # here, so `import qlesim` needs numpy alone

    roots = np.zeros((2, sd.size + 1))
    poles, y = (np.concatenate(([0.0], sd)), np.concatenate(([w0], z))) if w0 else (sd, z)
    n, unconverged = poles.size, 0
    for k in range(n):
        # y as it is with rho = 1: a unit y with rho = |y|^2 puts the top root
        # 1e-12 of the scale off where |y|^2 far exceeds the top pole
        delta, sigma, _, info = dlasd4(k, poles, y)
        unconverged += info != 0
        near = k + 1 if k + 1 < n and abs(delta[k + 1]) < abs(delta[k]) else k
        # one pole: LAPACK leaves DELTA = 1, and sigma^2 - p^2 = y^2
        roots[:, k - n] = poles[near], -delta[near] if n > 1 else y[0]**2 / (sigma + poles[0])
    if unconverged:
        raise ConvergenceError(f"secular equation: {unconverged} of {n} normal modes unconverged")
    return roots


def _arrowhead_eigen(w0, b, d):
    """Ascending eigenvalues of the symmetric arrowhead matrix [[alpha, b^T], [b, diag(d)]],
    alpha = w0^2 + sum_j b_j^2 / d_j for positive d, and a function yielding its
    orthonormal eigenvectors, (u0[i], u[i]) of rank ranks[i], as (ranks, u0, u)
    blocks of at most ``_ROOT_BLOCK`` built from O(N) data.

    The matrix is C^T C for C = [[w0, 0], [b / sqrt(d), diag(sqrt(d))]], so its
    eigenvalues are the squared singular values W^2 of C; w0 is taken in place
    of alpha, whose alpha - sum_j b_j^2 / d_j would cancel.  A coupling that is
    zero to rounding leaves (d_j, e_j) an eigenpair.  Each run of coupled equal
    poles acts as one pole of weight |b_run|^2, plus decoupled eigenvectors
    orthogonal to b_run; these few come first.  The rest are the roots W of
    the secular equation (:func:`_secular_roots`), with eigenvectors
    proportional to (1, b / (W^2 - d)), where d_j - W^2 = ((sqrt(d_j) - p) - tau)
    (sqrt(d_j) + W) keeps its relative accuracy next to the root's pole p.
    """
    n, sd = d.size, np.sqrt(d)
    tol = 8.0 * np.finfo(float).eps * (max(w0 * w0 + b @ (b / d), d.max()) + np.linalg.norm(b))
    free = np.abs(b) <= tol
    b = np.where(free, 0.0, b)
    coupled = np.argsort(d, kind="stable")
    coupled = coupled[~free[coupled]]
    first = np.flatnonzero(np.diff(d[coupled], prepend=-np.inf) > tol)
    runs = [coupled[f:f + k] for f, k in zip(first, np.diff(first, append=coupled.size)) if k > 1]
    poles = sd[coupled[first]]
    shift, tau = _secular_roots(w0, np.sqrt(np.add.reduceat(b[coupled] ** 2, first)) / poles, poles)
    freq = shift + tau
    vals = np.concatenate((d[free], *(np.full(run.size - 1, d[run[0]]) for run in runs), freq**2))
    # eigenpair i has rank row[i] in ascending order
    rank = np.argsort(vals, kind="stable")
    row = np.empty_like(rank)
    row[rank] = np.arange(n + 1)
    deflated = np.zeros((n + 1 - shift.size, n + 1))
    col = np.count_nonzero(free)
    deflated[np.arange(col), 1 + np.flatnonzero(free)] = 1.0
    for run in runs:
        deflated[col:col + run.size - 1, 1 + run] = (
            np.linalg.qr(b[run, None], "complete")[0][:, 1:].T)
        col += run.size - 1

    def vectors():
        yield row[:len(deflated)], deflated[:, 0].copy(), deflated[:, 1:].copy()
        plus = np.empty((min(_ROOT_BLOCK, shift.size), n))  # sd + W of a block
        for j in range(0, shift.size, _ROOT_BLOCK):  # (block, N) temporaries
            roots = slice(j, j + _ROOT_BLOCK)
            ratio = sd - shift[roots, None]
            ratio -= tau[roots, None]
            ratio *= np.add(sd, freq[roots, None], out=plus[:ratio.shape[0]])
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(b, ratio, out=ratio)
            # a decoupled mode has no part in a coupled eigenvector, even on its root
            ratio[:, free] = 0.0
            u0 = 1.0 / np.sqrt(1.0 + np.einsum("ij,ij->i", ratio, ratio))
            ratio *= -u0[:, None]
            yield row[len(deflated):][roots], u0, ratio

    return vals[rank], vectors


class _NormalModes:
    """Exact response of the oscillator and its N modes, from O(N) data.

    In coordinates z = (x, q_1..q_N) with masses M the Hessian has
    K_00 = m w0^2 + sum_j c_j^2 / (m_j w_j^2), K_0j = -c_j and
    K_jj = m_j w_j^2, so M^-1/2 K M^-1/2 is the arrowhead matrix of
    :func:`_arrowhead_eigen`, with b_j = -c_j / sqrt(m m_j) and poles w_j^2.
    With its eigendecomposition M^-1/2 K M^-1/2 = U diag(W^2) U^T from the
    secular equation,

        x(t) = sum_k a_k [cos(W_k t) (P z)_k + sin(W_k t) / W_k (P z')_k]

    where a = U[0] / sqrt(m) and P = U^T M^1/2.  At w0 = 0 one W_k is zero
    and sin(W t) / W takes its limit t.  Started at (x0, 0) in the displaced
    preparation, P z = x0 * start + s_rows @ z[:N] and P z' = p_rows @ z[N:]
    for the 2N standard normals z, with rows built a block at a time.

    :meth:`response` builds its rows coefficients first: a block's (cos - 1,
    sin / W, -W sin) of W t times a, stacked (3 len(times), block), takes
    one product with the block's raw eigenvectors, and the mode columns'
    scales (M^1/2, then sd_s or sd_p / m_j) go once on the (3 len(times), N)
    sum.  The dump's :meth:`_rows` scales each block, since it projects a
    block's normals onto every mode.
    """

    def __init__(self, modes: ModeSet, system: SystemSpec):
        root = np.sqrt(np.concatenate(([system.mass], modes.mass)))
        eigval, self._vectors = _arrowhead_eigen(
            system.omega0, -modes.coupling / (root[0] * root[1:]), modes.omega**2)
        self.freq = np.sqrt(np.clip(eigval, 0.0, None))
        sd_s, sd_p = np.sqrt(thermal_variances(modes, system))
        self._root, self._sd_s, self._sd_p = root, sd_s, sd_p / modes.mass
        self._unit = modes.coupling / (modes.mass * modes.omega**2)

    def _rows(self):
        """(ranks, a, start, s_rows, p_rows) of each block of normal modes."""
        for ranks, u0, proj in self._vectors():
            proj *= self._root[1:]  # the mode columns of U^T to those of P, in place
            start = u0 * self._root[0] + proj @ self._unit
            s_rows = proj * self._sd_s
            proj *= self._sd_p
            yield ranks, u0 / self._root[0], start, s_rows, proj

    def response(self, times, x0):
        """(mean, rows) of x at ``times`` followed by v at ``times``: each
        value is mean + rows @ z for a realization's 2N standard normals z."""
        sums, sums0 = np.zeros((3 * times.size, self._sd_s.size)), np.zeros(3 * times.size)
        for k, u0, u in self._vectors():
            coef = np.vstack(_basis(times, self.freq[k], u0 / self._root[0]))
            sums += coef @ u
            sums0 += coef @ u0
        sums *= self._root[1:]  # the mode columns of U^T to those of P
        start = self._root[0] * sums0 + sums @ self._unit
        cosm1, sinc, dsin = np.split(sums, 3)
        rows = np.block([[cosm1 * self._sd_s, sinc * self._sd_p],
                         [dsin * self._sd_s, cosm1 * self._sd_p]])
        mean = np.concatenate(np.split(start, 3)[::2])
        return x0 * (np.repeat([1.0, 0.0], times.size) + mean), rows


def _basis(times, freq, amp):
    """(cos - 1, sin / W, -W sin) of W t, each (len(times), len(freq)) times a."""
    wt = np.multiply.outer(times, freq)
    # cos - 1 about the exact initial values keeps t = 0 exact
    cosm1 = -2.0 * np.sin(0.5 * wt) ** 2 * amp
    sinc = times[:, None] * np.sinc(wt / np.pi) * amp
    return cosm1, sinc, -freq * np.sin(wt) * amp


def _finite(values):
    if not np.all(np.isfinite(values)):
        raise UnstableIntegrationError("normal-mode propagation is not finite")
    return values


def ensemble_stats(modes: ModeSet, system: SystemSpec, grid: TrajectoryGrid, taus,
                   n_real: int, seed: int, origins=None, x0: float = 0.0,
                   chunk_size: int = 2048, n_dump: int = 0):
    """(noise statistics, final-time moments, dump) of one pass over ``n_real``
    realizations, each started at (x0, 0) with the modes drawn from the
    displaced thermal state.

    The noise statistics hold per-lag estimates of the mean noise f(tau) and
    of the symmetric autocorrelation <f(t0) f(t0 + tau)>: for classical
    samples the operator ordering is immaterial, and the ensemble is
    stationary, so averaging the product over the time ``origins`` t0
    within each realization before accumulating tightens the standard
    error without biasing it.  The moments are <x^2> and <v^2> (``x2``,
    ``v2``) at t = n_steps * dt, each realization propagated exactly, so
    any dt is allowed.  The dump is None, or the (times, x, v, f) of the
    first ``n_dump`` realizations on ``grid.times``, which must resolve
    every mode.  The normal modes and the x(T), v(T) rows are built once.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if np.any(taus < 0):
        raise DomainError("lags must be nonnegative")
    origins = np.atleast_1d(np.asarray(origins if origins is not None else [0.0],
                                       dtype=float))
    times, where = np.unique(np.concatenate([taus, origins, np.add.outer(taus, origins).ravel()]),
                             return_inverse=True)
    tau_idx, base_idx, lag_idx = np.split(where, [taus.size, taus.size + origins.size])
    lag_idx = lag_idx.reshape(taus.size, origins.size)
    if n_dump:
        grid.check_resolves(modes)
    normal_modes = _NormalModes(modes, system)
    mean, final_rows = normal_modes.response(np.array([grid.dt * grid.n_steps]), x0)
    dump = (_trajectories(modes, system, normal_modes, final_rows, grid.times, n_dump, seed, x0)
            if n_dump else None)
    # x(T) and v(T) lead the value factor
    rows = np.vstack((final_rows, _noise_rows(modes, system, times)))
    factor = np.linalg.qr(rows.T, mode="r").T

    def work(streams):
        y = np.empty((len(rows), _BLOCK * len(streams)))
        _draw(streams, factor, y)
        (x, v), f = mean[:, None] + y[:2], y[2:]
        values, f_base = {"x2": x ** 2, "v2": v ** 2}, f[base_idx]
        for j in range(taus.size):
            values["mean", j] = f[tau_idx[j]]
            values["autocorr", j] = (f_base * f[lag_idx[j]]).mean(axis=0)
        return values

    est = _accumulate(seed, n_real, chunk_size, work, 1)
    return ({"taus": taus, "mean": [est["mean", j] for j in range(taus.size)],
             "autocorr": [est["autocorr", j] for j in range(taus.size)]},
            {"x2": est["x2"], "v2": est["v2"]}, dump)


def gle_moments_exact(modes: ModeSet, system: SystemSpec, grid: TrajectoryGrid,
                      x0: float = 0.0):
    """Exact (<x^2>, <v^2>) at the final grid time of the ensemble sampled by
    :func:`ensemble_stats`: the row norms mean^2 + |row|^2 of x(T), v(T)."""
    mean, rows = _NormalModes(modes, system).response(np.array([grid.dt * grid.n_steps]), x0)
    return tuple(float(m ** 2 + row @ row) for m, row in zip(mean, rows))


def _trajectories(modes: ModeSet, system: SystemSpec, normal_modes: _NormalModes, final_rows,
                  times, n_traj: int, seed: int, x0: float):
    """(times, x, v, f) of the first ``n_traj`` realizations of the pass whose
    x(T), v(T) rows are ``final_rows``, each array (len(times), n_traj).

    Each block's z, drawn given the pass's x(T), v(T) draws, is first
    projected onto the normal modes, then the time axis goes in slabs, so
    memory is that of the output plus one block, and no bit of a series
    depends on n_traj.
    """
    n = modes.count
    basis = np.linalg.qr(final_rows.T)[0]
    series, draws = np.empty((3, times.size, n_traj)), np.empty((2 * n + 2, _BLOCK))
    w, z, (pz, pp), amp = draws[:2], draws[2:], np.empty((2, n + 1, _BLOCK)), np.empty(n + 1)
    for first, ((stream,), width) in zip(range(0, n_traj, _BLOCK), _chunks(seed, n_traj, _BLOCK)):
        stream.standard_normal(out=draws)
        z += basis @ (w - basis.T @ z)
        for k, amp_k, start, s_rows, p_rows in normal_modes._rows():
            amp[k] = amp_k
            pz[k] = x0 * start[:, None] + s_rows @ z[:n]
            pp[k] = p_rows @ z[n:]
        for a in range(0, times.size, _SLAB_STEPS):
            t = times[a:a + _SLAB_STEPS]
            cosm1, sinc, dsin = _basis(t, normal_modes.freq, amp)
            for out, values in zip(series, (x0 + cosm1 @ pz + sinc @ pp, dsin @ pz + cosm1 @ pp,
                                            _noise_rows(modes, system, t) @ z)):
                out[a:a + t.size, first:first + width] = values[:, :width]
    return (times, *_finite(series))
