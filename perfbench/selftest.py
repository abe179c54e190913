"""Tests of the benchmark harness itself (not part of the package tests).

    python3 perfbench/selftest.py
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

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from dualitysim import cli  # noqa: E402
from spans import (  # noqa: E402
    Span,
    Tracer,
    dualitysim_targets,
    installed_wrappers,
    layer_metrics,
    self_times,
    traced_modules,
)
from reference import SMALL, ReferenceProcess  # noqa: E402
from worker import measure  # noqa: E402
from workloads import AnalyticGrid, SweepNoiseless, count_bad_rows  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            Span("root", 0.0, 10.0, None, 0),
            Span("a", 1.0, 4.0, 0, 0),
            Span("a.child", 2.0, 3.0, 1, 0),
            Span("b", 5.0, 6.5, 0, 0),
            Span("b.child", 5.5, 6.0, 3, 0),
            Span("b.child.child", 5.75, 6.0, 4, 0),
            Span("c", 8.0, 9.0, 0, 0),
        ]
        self.assertEqual(self_times(spans), [4.5, 2.0, 1.0, 1.0, 0.25, 0.25, 1.0])

    def test_fold_accumulates_per_name(self):
        tracer = Tracer([])
        tracer.spans = [
            Span("x", 0.0, 5.0, None, 0),
            Span("y", 1.0, 2.0, 0, 0, error="DegenerateProfile"),
            Span("y", 2.0, 4.0, 0, 0, work=7.0),
        ]
        tracer.fold()
        self.assertEqual(tracer.spans, [])
        x, y = tracer.totals["x"], tracer.totals["y"]
        self.assertEqual((x.calls, x.self_s, x.inclusive_s), (1, 2.0, 5.0))
        self.assertEqual((y.calls, y.self_s, y.errors, y.work), (2, 3.0, 1, 7.0))


class CorrectnessCheckTest(unittest.TestCase):
    columns = ["V_cond_V", "P_cond_H", "p_H", "p_V", "V_cond_V_measured", "P_cond_H_measured"]

    def test_perturbed_sweep_row_is_failed(self):
        good = [0.5, 1.0, 0.2, 0.8, 0.5002, 0.9999]
        self.assertEqual(count_bad_rows(self.columns, [good, good]), 0)
        perturbed = list(good)
        perturbed[4] += 2e-3
        self.assertEqual(count_bad_rows(self.columns, [good, perturbed]), 1)

    def test_nan_only_allowed_on_a_dark_port(self):
        dark_h = [0.0, 1.0, 0.0, 1.0, 0.0, math.nan]
        lit_h = [0.0, 1.0, 0.3, 0.7, 0.0, math.nan]
        self.assertEqual(count_bad_rows(self.columns, [dark_h]), 0)
        self.assertEqual(count_bad_rows(self.columns, [lit_h]), 1)

    def test_real_sweep_output_then_perturbed(self):
        with tempfile.TemporaryDirectory() as tmp:
            sweep = SweepNoiseless(0, Path(tmp))
            sweep.argv[sweep.argv.index("--samples") + 1] = "7"
            self.assertEqual(sweep.check(sweep.run(0)), 0)
            path = sweep.out.with_suffix(".json")
            payload = json.loads(path.read_text())
            column = payload["columns"].index("V_cond_V_measured")
            payload["rows"][3][column] += 0.01
            path.write_text(json.dumps(payload))
            self.assertEqual(sweep.check(0), 1)

    def test_perturbed_grid_point_is_failed(self):
        with tempfile.TemporaryDirectory() as tmp:
            grid = AnalyticGrid(0, Path(tmp))
        grid.points = grid.points[:64]
        results = grid.run(0)
        self.assertEqual(grid.check(results), 0)
        uncond, cond, cond_c, avg = results[5]
        results[5] = (uncond, cond, cond_c, type(avg)(
            avg.visibility + 1e-8, avg.predictability, avg.probability, avg.label
        ))
        self.assertEqual(grid.check(results), 1)


class ReferenceProcessTest(unittest.TestCase):
    def test_times_the_kernel_and_ends(self):
        with ReferenceProcess(SMALL) as kernel:
            process = kernel.process
            self.assertEqual(len(kernel.samples(2)), 2)
            self.assertGreater(kernel.after(0.1), 0.0)
        self.assertEqual(process.returncode, 0)


class WrapperRemovalTest(unittest.TestCase):
    def test_wrappers_removed_on_exit(self):
        targets = dualitysim_targets()
        originals = [getattr(module, attr) for module, attr, _, _ in targets]
        with Tracer(targets):
            self.assertEqual(
                len(installed_wrappers(traced_modules())), len(targets)
            )
        self.assertEqual(installed_wrappers(traced_modules()), [])
        for (module, attr, _, _), original in zip(targets, originals):
            self.assertIs(getattr(module, attr), original)

    def test_wrappers_removed_when_the_body_raises(self):
        with self.assertRaises(KeyError), Tracer(dualitysim_targets()):
            raise KeyError("boom")
        self.assertEqual(installed_wrappers(traced_modules()), [])

    def test_timed_run_refuses_installed_wrappers(self):
        class Never:
            items_per_batch = 1

            def run(self, index, tracer=None):
                raise AssertionError("a timed batch ran with wrappers installed")

        with Tracer(dualitysim_targets()):
            with self.assertRaises(RuntimeError):
                measure(Never(), 0.0, kernel=None)

    def test_spans_seen_as_the_cli_calls_them(self):
        with tempfile.TemporaryDirectory() as tmp, Tracer(dualitysim_targets()) as tracer:
            with tracer.span("cli"), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["render", "--calibrated", "--grid", "128", "--out", tmp])
            tracer.fold()
        self.assertEqual(code, 0)
        metrics = layer_metrics(tracer.totals, items=1, overhead=0.0)
        value = {name: m["value"] for name, m in metrics.items()}
        self.assertEqual(value["fringes.azimuthal_profile.calls"], 2)
        self.assertEqual(value["optics.render_image.calls"], 4)
        self.assertEqual(value["optics.render_image.pixels"], 4 * 128 * 128)
        self.assertEqual(value["fringes.fit.calls"], 3)
        self.assertGreater(value["io.bytes_written"], 2 * 128 * 128 * 4)
        self.assertGreater(value["cli.self_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
