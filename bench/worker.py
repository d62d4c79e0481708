"""Runs one workload for a fixed time in a fresh interpreter.

Started by ``run.py`` with the BLAS thread variables already set; writes
one JSON result file.  One untimed warm-up pass comes first, then passes
repeat until ``--seconds`` have gone by, each after a few calibration
samples (:func:`calibrate`); five fresh-interpreter imports
(:func:`time_import`) then give the set-up time.  Untraced passes give the end-to-end
figures; with ``--trace 1`` traced and untraced passes alternate, the
traced ones give the per-layer figures and their differences from the
untraced passes before them give the tracing overhead.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out FILE
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
from scipy import integrate

ROOT = Path(__file__).resolve().parent.parent
MB = 1e6

# Layers whose counts are a peak over calls rather than a sum.
PEAK_KEYS = ("markovian.noise_mb", "rwa.noise_mb", "microbath.gle_array_mb",
             "quadrature.err_over_tol_max")
QUAD_SPANS = ("fdt.position_correlation", "fdt.velocity_correlation")
# calibration samples taken before every pass and after the last
CAL_SAMPLES = 3
# set-up time is reported at this calibration time, a round figure near
# the calibration's time on the 2-CPU host the benchmark was written on
CAL_REF_MS = 25.0
# fresh-interpreter imports behind the set-up median
SETUP_SAMPLES = 5


def _ensemble_counts(prefix):
    """Trajectory steps and the per-chunk noise array of an SDE ensemble."""

    def count(args, result, exc):
        if result is None:
            return None
        total = result.meta["burn_steps"] + result.meta["n_steps"]
        chunk = min(args.get("chunk_size", args["n_traj"]), args["n_traj"])
        return {f"{prefix}.traj_steps": args["n_traj"] * total,
                f"{prefix}.noise_mb": chunk * total * 2 * 8 / MB}

    return count


def _gle_counts(args, result, exc):
    n, n_real, n_modes = args["grid"].n_steps, args["n_real"], args["modes"].count
    batch = min(args.get("chunk_size", n_real), n_real)
    # per chunk: (2n+1) x N phases, (2n+1) x batch forces, two (n+1) x batch histories
    floats = (2 * n + 1) * n_modes + (2 * n + 1) * batch + 2 * (n + 1) * batch
    return {"microbath.gle_conv_macs": n_real * n * (n + 1) // 2,
            "microbath.gle_array_mb": floats * 8 / MB}


def _panel_counts(args, result, exc):
    cfg = args["cfg"]
    if result is not None:
        value, err = result
    elif getattr(exc, "error_bound", None) is not None:
        value, err = exc.estimate, exc.error_bound
    else:
        value = err = 0.0
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
    return {"quadrature.integrate_panels.panels":
                len(args["edges"]) - 1 + bool(args.get("tail_to_inf")),
            "quadrature.err_over_tol_max": err / tol,
            "quadrature.raised": int(exc is not None)}


def layer_targets():
    """(span name, owner, attribute, count_fn) for every traced layer."""
    from qlesim import bath, cli, ensemble, fdt, io, markovian, microbath, quadrature, response
    from qlesim import rwa, sde

    return [
        ("cli.main", cli, "main", None),
        ("sde.trajectory_seeds", sde, "trajectory_seeds",
         lambda a, r, e: {"sde.trajectory_seeds.streams": len(r) if r is not None else 0}),
        ("markovian.simulate_sde", markovian, "simulate_sde", _ensemble_counts("markovian")),
        ("rwa.simulate_rwa", rwa, "simulate_rwa", _ensemble_counts("rwa")),
        ("ensemble.update_batch", ensemble.MomentAccumulator, "update_batch", None),
        ("bath.discretize_bath", bath, "discretize_bath", None),
        ("microbath.gle_ensemble_moments", microbath, "gle_ensemble_moments", _gle_counts),
        ("microbath.noise_ensemble_stats", microbath, "noise_ensemble_stats",
         lambda a, r, e: {"microbath.noise_normals": a["n_real"] * 2 * a["modes"].count}),
        ("microbath.noise_autocorrelation_quadrature", microbath,
         "noise_autocorrelation_quadrature", None),
        ("response.Susceptibility.init", response.Susceptibility, "__init__", None),
        ("response.mu_fourier", response, "mu_fourier", None),
        ("fdt.position_correlation", fdt, "position_correlation", None),
        ("fdt.velocity_correlation", fdt, "velocity_correlation", None),
        ("quadrature.integrate_panels", quadrature, "integrate_panels", _panel_counts),
        ("io.write_table", io, "write_table",
         lambda a, r, e: {"io.rows": len(a["rows"])}),
    ]


def per_layer(spans, names):
    from spans import layer_metrics

    m = layer_metrics(spans, names, PEAK_KEYS)
    m["response.Susceptibility.init_s"] = m.pop("response.Susceptibility.init.s")
    return m


def run_pass(workload, targets, traced):
    """One pass of the workload's calls, then its checks (untimed)."""
    from spans import Tracer
    from workloads import Checks

    if not traced:
        targets = [t for t in targets if t[0] in QUAD_SPANS]
    # a CLI run starts without the previous call's garbage; collecting it
    # here also keeps collector pauses out of the pass
    gc.collect()
    tracer = Tracer(targets)
    with tracer:
        calls = workload.run()
    checks = Checks()
    workload.check(calls, checks)
    return {
        "traced": traced,
        "wall_s": sum(c.seconds for c in calls),
        "calls": [{"name": c.name, "seconds": c.seconds, "ok": c.ok, "error": c.error}
                  for c in calls],
        "mc_cost_1pct_s": workload.mc_cost(calls),
        "checks": checks.results,
        "spans": tracer.spans,
    }


def calibrate():
    """Seconds for a fixed mix of the machinery the workloads lean on.

    An interpreter loop, QUADPACK's cosine rule calling back into Python,
    and normal draws stepped through a 2x2 propagator: together about
    25 ms, independent of qlesim and small enough to leave the peak RSS
    alone.  The speed of a shared host can drift by tens of percent over
    minutes; dividing pass time by this time, measured in the same process
    during the same run, takes most of that drift out.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(100_000):
        total += i * 0.5
    for _ in range(20):
        integrate.quad(lambda w: 1.0 / ((1.0 - w * w) ** 2 + (1e-3 * w) ** 2), 0.0, 50.0,
                       weight="cos", wvar=1.3, limit=200)
    draws = numpy.random.default_rng(1).standard_normal((2048, 50, 2))
    state, prop = numpy.zeros((2048, 2)), 0.9 * numpy.eye(2)
    for k in range(50):
        state = state @ prop.T + draws[:, k, :]
    return time.perf_counter() - start


def time_import():
    """Seconds from starting a fresh interpreter until ``import qlesim`` returns."""
    code = "import time, qlesim; print(time.monotonic())"
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1]) - start


def summarize(passes, cal, names):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    latencies = [1e3 * (s.end - s.start) for p in plain for s in p["spans"]
                 if s.name in QUAD_SPANS]
    costs = [p["mc_cost_1pct_s"] for p in plain if p["mc_cost_1pct_s"] is not None]
    wall = statistics.median(p["wall_s"] for p in plain)
    figures = {
        "wall_s": wall,
        "wall_norm": statistics.mean(p["wall_s"] for p in plain) / statistics.mean(cal),
        "calibration_ms": 1e3 * statistics.mean(cal),
        "mc_cost_1pct_s": statistics.median(costs) if costs else None,
        "quad_eval_ms_p50": statistics.median(latencies) if latencies else None,
        "quad_eval_ms_p90": (statistics.quantiles(latencies, n=10, method="inclusive")[8]
                             if len(latencies) > 1 else None),
        "quad_eval_samples": len(latencies),
        "passes": len(plain),
        "traced_passes": len(traced),
    }
    layers = {}
    if traced:
        per_pass = [per_layer(p["spans"], names) for p in traced]
        keys = sorted(set().union(*per_pass))
        layers = {k: statistics.median(m.get(k, 0) for m in per_pass) for k in keys}
        # passes alternate untraced, traced: pair each traced pass with the
        # untraced one just before it, so slow drift of the host cancels
        layers["trace.overhead_s"] = statistics.median(
            b["wall_s"] - a["wall_s"] for a, b in zip(passes, passes[1:]) if b["traced"])
    return figures, layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import scipy
    import qlesim

    if Path(qlesim.__file__).resolve().parent != (src / "qlesim").resolve():
        sys.exit(f"qlesim imported from {qlesim.__file__}, not from {src}")

    from workloads import WORKLOADS

    tmp = ROOT / ".bench_out" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, tmp)
        targets = layer_targets()
        names = [t[0] for t in targets]
        start = time.perf_counter()
        # the first pass fills lazy caches and is left out of the timings;
        # it alone sets the peak RSS, as one CLI process per pass would:
        # later passes in the same process can find the heap fragmented
        warmup = run_pass(workload, targets, traced=False)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
        passes, cal = [], []
        while True:
            cal += [calibrate() for _ in range(CAL_SAMPLES)]
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(workload, targets, traced))
            enough = len(passes) >= (2 if args.trace else 1)
            if enough and time.perf_counter() - start >= args.seconds:
                break
        cal += [calibrate() for _ in range(CAL_SAMPLES)]
        # after the passes, so that the child interpreters disturb none of
        # them, and still inside the window the calibration covers
        setup = [time_import() for _ in range(SETUP_SAMPLES)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    figures, layers = summarize(passes, cal, names)
    figures["peak_rss_mb"] = peak_rss_mb
    figures["setup_raw_s"] = statistics.median(setup)
    figures["setup_s"] = figures["setup_raw_s"] * CAL_REF_MS / figures["calibration_ms"]
    failing = {}
    attempted = 0
    for p in [warmup] + passes:
        attempted += len(p["checks"])
        for check_id, ok, detail in p["checks"]:
            if not ok:
                failing.setdefault(check_id, [0, detail])[0] += 1
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "figures": figures,
        "per_layer": layers,
        "attempted": attempted,
        "failed": sum(n for n, _ in failing.values()),
        "checks_per_pass": len(passes[0]["checks"]),
        "setup_samples_s": setup,
        "calibration_ref_ms": CAL_REF_MS,
        "failing": {k: {"passes": n, "detail": d} for k, (n, d) in failing.items()},
        "passes": [{k: v for k, v in p.items() if k not in ("checks", "spans")}
                   for p in passes],
        "spans": [[[s.name, s.start, s.end, s.parent, s.raised, s.count_error]
                   for s in p["spans"]] for p in passes if p["traced"]],
        "environment": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "qlesim": getattr(qlesim, "__version__", None),
            "cpu_count": os.cpu_count(),
        },
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
