"""Tests of the benchmark itself: checkers, exact values, spans, wrappers.

    python3 bench/selftest.py          (or: python3 -m pytest bench/selftest.py)
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
for entry in (BENCH.parent / "src", BENCH):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import exact  # noqa: E402
import worker  # noqa: E402
from spans import Span, Tracer, covered, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, Call, Checks  # noqa: E402


class CheckerTest(unittest.TestCase):
    def test_ehrenfest_reference_rejected_when_wrong(self):
        exact_value = exact.Oscillator().rwa_ehrenfest(0.1, 1.0)
        self.assertAlmostEqual(exact_value, 0.540, places=3)
        checks = Checks()
        checks.reference("wrong", {"reference": 0.216395341374}, exact_value)
        checks.reference("right", {"reference": float(f"{exact_value:.12g}")}, exact_value)
        checks.reference("missing", None, exact_value)
        self.assertEqual([ok for _, ok, _ in checks.results], [False, True, False])

    def test_monte_carlo_within_five_standard_errors(self):
        checks = Checks()
        checks.monte_carlo("in", {"value": 1.049, "std_error": 0.01}, 1.0)
        checks.monte_carlo("out", {"value": 1.051, "std_error": 0.01}, 1.0)
        checks.monte_carlo("no_se", {"value": 1.0, "std_error": "nan"}, 1.0)
        checks.monte_carlo("nan", {"value": math.nan, "std_error": 0.01}, 1.0)
        self.assertEqual([ok for _, ok, _ in checks.results], [True, False, False, False])

    def test_ehrenfest_exact_limits(self):
        osc = exact.Oscillator()
        # the ROADMAP's value at the CLI default dt = 1/gamma
        self.assertAlmostEqual(osc.rwa_ehrenfest(0.1, 10.0), 1.1536, places=4)
        # as dt -> 0 the white x-noise term I_x/(2 dt) dominates
        dt = 1e-5
        ix = 2.0 * 0.1 * osc.coth0
        self.assertAlmostEqual(osc.rwa_ehrenfest(0.1, dt) / (ix / (2.0 * dt)), 1.0, places=4)

    def test_matsubara_energy_matches_untruncated_quadrature(self):
        from qlesim import fdt
        from qlesim.bath import BathSpec, SystemSpec

        quad = fdt.position_correlation(0.0, SystemSpec(), BathSpec.strict_ohmic(0.5))
        ratio = exact.Oscillator().ohmic_position_variance(0.5) / quad
        self.assertAlmostEqual(ratio, 1.0, places=12)


class FailureAccountingTest(unittest.TestCase):
    def test_failed_calls_fail_every_check_and_known_ids_exist(self):
        with open(BENCH / "design.json") as fh:
            design = json.load(fh)["workloads"]
        with tempfile.TemporaryDirectory() as tmp:
            for name, cls in WORKLOADS.items():
                workload = cls(1, Path(tmp))
                calls = self._failed_calls(workload)
                checks = Checks()
                workload.check(calls, checks)
                ids = [check_id for check_id, _, _ in checks.results]
                self.assertEqual(len(ids), design[name]["checks_per_pass"], name)
                self.assertEqual(len(set(ids)), len(ids), name)
                self.assertFalse(any(ok for _, ok, _ in checks.results), name)
                self.assertLessEqual(set(design[name]["known_failures"]), set(ids), name)

    @staticmethod
    def _failed_calls(workload):
        if workload.name == "langevin_mc":
            names = ["sde", "rwa"]
        elif workload.name == "finite_bath":
            names = ["microbath"]
        else:
            names = ["scan"] + [f"sweep-{i}" for i in range(len(workload.sweep))]
        return [Call(name, 0.0, False, error="exit 2") for name in names]


class SpanTest(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        spans = [
            Span("a", 0.0, 10.0),
            Span("b", 1.0, 4.0, parent=0),
            Span("c", 2.0, 3.0, parent=1),
            Span("d", 5.0, 6.0, parent=0),
        ]
        self.assertEqual(self_times(spans), [6.0, 2.0, 1.0, 1.0])
        m = layer_metrics(spans, ["a", "e"])
        self.assertEqual((m["a.s"], m["a.self_s"], m["a.calls"]), (10.0, 6.0, 1))
        self.assertEqual((m["e.s"], m["e.calls"]), (0.0, 0))

    def test_covered_merges_overlaps(self):
        self.assertEqual(covered([(5, 6), (0, 2), (1, 3)]), 4)
        self.assertEqual(covered([]), 0.0)

    def test_wrappers_reach_by_name_imports(self):
        from qlesim import bath, cli, fdt, markovian, microbath, quadrature, rwa, sde

        originals = (sde.trajectory_seeds, quadrature.integrate_panels, bath.discretize_bath)
        with Tracer(worker.layer_targets()):
            for module in (markovian, rwa, microbath):
                self.assertTrue(hasattr(module.trajectory_seeds, "__wrapped__"))
            for module in (fdt, microbath):
                self.assertTrue(hasattr(module.integrate_panels, "__wrapped__"))
            self.assertTrue(hasattr(cli.discretize_bath, "__wrapped__"))
            self.assertTrue(hasattr(cli.markovian.simulate_sde, "__wrapped__"))
        self.assertIs(markovian.trajectory_seeds, originals[0])
        self.assertIs(fdt.integrate_panels, originals[1])
        self.assertIs(cli.discretize_bath, originals[2])

    def test_traced_sde_run_records_stream_span(self):
        from qlesim import cli

        tracer = Tracer(worker.layer_targets())
        with tracer, contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(cli.main(["sde", "--traj", "8", "--steps", "5", "--seed", "3"]), 0)
        names = [s.name for s in tracer.spans]
        self.assertIn("sde.trajectory_seeds", names)
        seeds = tracer.spans[names.index("sde.trajectory_seeds")]
        parent = tracer.spans[seeds.parent]
        self.assertEqual(parent.name, "markovian.simulate_sde")
        self.assertEqual(tracer.spans[parent.parent].name, "cli.main")
        self.assertEqual(seeds.counts["sde.trajectory_seeds.streams"], 8)
        # default dt = 1/gamma = 10 and burn-in 10/gamma = 100: 10 burn-in steps
        self.assertEqual(parent.counts["markovian.traj_steps"], 8 * (10 + 5))


if __name__ == "__main__":
    unittest.main()
