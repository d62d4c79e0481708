"""Outside-in benchmark of qlesim: one workload, timed and checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the package is imported from
``src/``.  The workload runs in a fresh interpreter (``worker.py``), which
also times fresh interpreters importing qlesim for the set-up time, all
with the OpenBLAS/OMP/MKL thread variables set to 1.
Every figure is printed with its unit, then the failing checks, then the
provenance; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics BENCHMARK.json names
(end-to-end with ``--trace 0``, per-layer with ``--trace 1``).  The
bounded pass time, ``wall_norm``, is in units of a calibration mix timed
in the same run, and ``setup_s`` is rescaled to a fixed calibration
time, because the speed of a shared host can drift over minutes; see
``design.json`` for every metric and workload.

``correct`` is true when every failing check is a known defect of the
program listed in ``design.json``; known defects still count in
``failed``.  Exits non-zero without a result when the workload cannot
run, for instance when ``src/qlesim`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def source_digest():
    """sha256 over the paths and bytes of src/, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_workload(name, seed, seconds, trace, spec, design):
    started = time.monotonic()
    env = child_env()
    OUT.mkdir(exist_ok=True)
    out = OUT / f"result-{name}-seed{seed}-trace{trace}.json"
    out.unlink(missing_ok=True)
    remaining = DEADLINE_S - (time.monotonic() - started)
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)],
        env=env, cwd=ROOT, timeout=max(remaining, 1.0))
    if done.returncode != 0 or not out.is_file():
        raise RuntimeError(f"worker for {name} failed (exit {done.returncode})")
    with open(out) as fh:
        result = json.load(fh)

    figures = result["figures"]
    figures["fail_ratio"] = result["failed"] / result["attempted"]
    known = set(design["workloads"][name]["known_failures"])
    result["provenance"] = {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        **result.pop("environment"),
        "threads": {var: env[var] for var in THREAD_VARS},
        "seed": seed, "seconds": seconds, "trace": trace,
    }
    result["correct"] = all(check_id in known for check_id in result["failing"])
    with open(out, "w") as fh:
        json.dump(result, fh)

    report(name, result, spec, known)
    if trace:
        values = {**figures, **result["per_layer"]}
        declared = spec["per_layer"]
    else:
        values, declared = figures, spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]) or 0, "unit": m["unit"]}
               for m in declared}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def report(name, result, spec, known):
    """Every figure with its unit, then the failing checks and the provenance."""
    f = result["figures"]
    n_plain, n_checks = f["passes"], result["checks_per_pass"]
    print(f"# workload {name}: {n_plain} untraced and {f['traced_passes']} traced passes")
    rows = (
        ("wall_norm", "cal", "mean pass wall / mean calibration time"),
        ("wall_s", "s", f"median of {n_plain} passes, import excluded"),
        ("calibration_ms", "ms", "mean calibration time"),
        ("setup_s", "s", f"median of {len(result['setup_samples_s'])} fresh interpreters, "
                         f"rescaled to calibration {result['calibration_ref_ms']} ms"),
        ("setup_raw_s", "s", "the same median as measured"),
        ("peak_rss_mb", "MB", ""),
        ("fail_ratio", "ratio", f"{result['failed']} of {result['attempted']} checks "
                                f"({n_checks} per pass)"),
        ("mc_cost_1pct_s", "s", "seconds to 1% relative standard error"),
        ("quad_eval_ms_p50", "ms", f"{f['quad_eval_samples']} correlation calls"),
        ("quad_eval_ms_p90", "ms", ""),
    )
    for key, unit, note in rows:
        value = f.get(key)
        shown = "n/a (no such calls)" if value is None else f"{value:.6g} {unit}"
        print(f"{key:<18} {shown:<22} {note}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for key, value in sorted(result["per_layer"].items()):
        if key in units:
            print(f"{key:<48} {value:.6g} {units[key]}")
    for check_id, info in sorted(result["failing"].items()):
        tag = "known defect" if check_id in known else "NEW FAILURE"
        print(f"FAIL [{tag}] {check_id}: {info['detail']}")
    print("# provenance " + json.dumps(result["provenance"], sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qlesim" / "__init__.py").is_file():
        print(f"error: no qlesim source tree under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    with open(BENCH / "design.json") as fh:
        design = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names) or not args.seconds > 0:
        print(f"error: workload must be one of {names} or 'all'; seconds > 0",
              file=sys.stderr)
        return 2
    try:
        for name in chosen:
            line = run_workload(name, args.seed, args.seconds, args.trace, spec, design)
            print(json.dumps(line))
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
