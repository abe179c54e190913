"""The four benchmark workloads: inputs from a seed, batches, checks.

Every workload is a closed loop with one client: the next batch starts
when the previous one has returned.  A batch is the unit that is timed;
it completes ``items_per_batch`` items, and ``check`` counts the items
of a batch whose output is wrong.  Seed 0 gives the configuration named
in each docstring; other seeds draw the varied input from
``numpy.random.default_rng(seed)`` and leave the amount of work the same.

The CLI workloads call ``dualitysim.cli.main`` in-process, with stdout
captured, and read back the files it writes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from dualitysim import P_MIN, ZeroProbabilityPostselection, cli, duality
from dualitysim.duality import closed_form_averaged
from dualitysim.qubit import StateParams, projector_bloch

def _cli(argv: list[str], tracer=None) -> int:
    span = tracer.span("cli") if tracer is not None else contextlib.nullcontext()
    with span, contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class SweepNoiseless:
    """``sweep --sweep theta --fixed pi/12 --samples 181 --photons inf
    --grid 512``.  An item is a sweep row; a batch is one sweep.  Other
    seeds draw the fixed alpha from [pi/24, pi/4]."""

    name = "sweep_noiseless"
    samples = 181
    items_per_batch = samples

    def __init__(self, seed: int, workdir: Path):
        if seed == 0:
            fixed = "pi/12"
        else:
            fixed = repr(float(np.random.default_rng(seed).uniform(math.pi / 24, math.pi / 4)))
        self.out = workdir / "sweep"
        self.argv = [
            "sweep", "--sweep", "theta", "--fixed", fixed,
            "--samples", str(self.samples), "--photons", "inf", "--grid", "512",
            "--out", str(self.out),
        ]

    def warmup(self) -> None:
        argv = list(self.argv)
        argv[argv.index("--samples") + 1] = "2"
        argv[argv.index("--out") + 1] = str(self.out) + "_warmup"
        if _cli(argv) != 0:
            raise RuntimeError("warm-up sweep failed")

    def run(self, index: int, tracer=None) -> int:
        return _cli(self.argv, tracer)

    def check(self, code: int) -> int:
        if code != 0:
            return self.items_per_batch
        payload = json.loads(self.out.with_suffix(".json").read_text())
        return count_bad_rows(payload["columns"], payload["rows"])


def count_bad_rows(columns: list[str], rows: list[list[float]], tol: float = 1e-3) -> int:
    """Sweep rows whose measured V or P is off its closed form by > tol.

    A measured value may be NaN only where its port is dark: V where
    p_V < P_MIN, P where p_H < P_MIN.
    """
    col = {name: i for i, name in enumerate(columns)}
    pairs = (
        ("V_cond_V", "V_cond_V_measured", "p_V"),
        ("P_cond_H", "P_cond_H_measured", "p_H"),
    )
    bad = 0
    for row in rows:
        for closed, measured, prob in pairs:
            expected, got, p = row[col[closed]], row[col[measured]], row[col[prob]]
            if math.isnan(got):
                ok = p < P_MIN
            else:
                ok = math.isnan(expected) or abs(got - expected) <= tol
            if not ok:
                bad += 1
                break
    return bad


class RenderCalibrated:
    """``render --calibrated`` (photons 1e6, with impurity), each call with
    its own seed: seed * 1_000_000 + call number.  An item is a render;
    a batch is one render."""

    name = "render_calibrated"
    items_per_batch = 1

    def __init__(self, seed: int, workdir: Path):
        self.base_seed = seed * 1_000_000
        self.out = workdir / "render"
        self.calls = 0

    def _argv(self) -> list[str]:
        argv = ["render", "--calibrated", "--seed", str(self.base_seed + self.calls),
                "--out", str(self.out)]
        self.calls += 1
        return argv

    def warmup(self) -> None:
        if _cli(self._argv()) != 0:
            raise RuntimeError("warm-up render failed")

    def run(self, index: int, tracer=None) -> int:
        return _cli(self._argv(), tracer)

    def check(self, code: int) -> int:
        if code != 0:
            return 1
        report = json.loads((self.out / "report.json").read_text())
        ok = (
            abs(report["P_measured"] - 0.98) <= 0.02
            and abs(report["V_measured"] - 0.93) <= 0.02
            and report["petal_count"] == 6
        )
        return 0 if ok else 1


class AnalyticGrid:
    """A 64x64 (theta, alpha) grid on [0, 2pi)^2 through the library.  Each
    point runs ``unconditional_duality``, ``conditional_duality`` with a
    random ``projector_bloch`` projector (uniform on the sphere, drawn
    from the seed) and with its complement, and ``averaged_duality``.  An
    item is a grid point; a batch is the whole grid."""

    name = "analytic_grid"
    side = 64
    items_per_batch = side * side

    def __init__(self, seed: int, workdir: Path):
        grid = np.linspace(0.0, 2.0 * math.pi, self.side, endpoint=False)
        thetas, alphas = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
        rng = np.random.default_rng(seed)
        polar = np.arccos(rng.uniform(-1.0, 1.0, self.items_per_batch))
        azimuth = rng.uniform(0.0, 2.0 * math.pi, self.items_per_batch)
        self.points = [
            (
                StateParams(float(t), float(a)),
                projector_bloch(float(p), float(z)),
                projector_bloch(math.pi - float(p), float(z) + math.pi),
            )
            for t, a, p, z in zip(thetas, alphas, polar, azimuth)
        ]
        self.closed_v, self.closed_p = closed_form_averaged(thetas, alphas)

    def _point(self, params, proj, complement):
        def conditional(projector):
            try:
                return duality.conditional_duality(params, projector)
            except ZeroProbabilityPostselection:
                return None  # undefined: the outcome has zero probability

        return (
            duality.unconditional_duality(params),
            conditional(proj),
            conditional(complement),
            duality.averaged_duality(params),
        )

    def warmup(self) -> None:
        self._point(*self.points[1])

    def run(self, index: int, tracer=None) -> list:
        out = []
        for k, point in enumerate(self.points):
            if tracer is not None:
                tracer.item = index * self.items_per_batch + k
            out.append(self._point(*point))
        return out

    def check(self, results: list) -> int:
        bound = 1.0 + 1e-9
        bad = 0
        for k, (uncond, cond, cond_c, avg) in enumerate(results):
            sums = [r.sum_of_squares for r in (uncond, cond, cond_c, avg) if r is not None]
            ok = (
                all(s <= bound for s in sums)
                and abs(avg.visibility - self.closed_v[k]) <= 1e-10
                and abs(avg.predictability - self.closed_p[k]) <= 1e-10
            )
            bad += not ok
        return bad


class WeakScan:
    """``weak --psi gaussian:512 --n 4096 --mode exact --phi
    0.2,0.1,0.05,0.025``.  An item is one sliver position for one phi;
    a batch is one call.  Other seeds draw the Gaussian width from
    [448, 576]."""

    name = "weak_scan"
    n = 4096
    phis = "0.2,0.1,0.05,0.025"
    items_per_batch = n * len(phis.split(","))

    def __init__(self, seed: int, workdir: Path):
        sigma = 512.0 if seed == 0 else float(np.random.default_rng(seed).uniform(448, 576))
        self.out = workdir / "weak"
        self.argv = ["weak", "--psi", f"gaussian:{sigma!r}", "--n", str(self.n),
                     "--mode", "exact", "--phi", self.phis, "--out", str(self.out)]

    def warmup(self) -> None:
        argv = list(self.argv)
        argv[argv.index("--n") + 1] = "16"
        argv[argv.index("--out") + 1] = str(self.out) + "_warmup"
        if _cli(argv) != 0:
            raise RuntimeError("warm-up weak scan failed")

    def run(self, index: int, tracer=None) -> int:
        return _cli(self.argv, tracer)

    def check(self, code: int) -> int:
        if code != 0:
            return self.items_per_batch
        summary = json.loads(Path(f"{self.out}_summary.json").read_text())
        order = summary["convergence_order"]
        return 0 if order is not None and abs(order - 2.0) <= 0.2 else self.items_per_batch


WORKLOADS = {
    cls.name: cls for cls in (SweepNoiseless, RenderCalibrated, AnalyticGrid, WeakScan)
}
