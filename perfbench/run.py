"""dualitysim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory.  Every process is single-threaded with BLAS threads
pinned to 1, and every measurement happens in a fresh child interpreter
(``worker.py``), so the numbers do not depend on what ran before.

With ``--trace 0`` the run reports the end-to-end metrics:

  items_per_s  median over batches of items / batch wall time, tracing off
  setup_s      median over SETUP_REPEATS fresh interpreters of the time from
               ``import dualitysim`` to the end of one warm-up item
  peak_rss_mb  peak resident memory of the child that ran the workload

Both timings are scaled by a reference kernel timed next to them in a
process of its own (see ``reference.py``), because the machine's speed
drifts; the unscaled figures are reported as ``wall_items_per_s`` and
``wall_setup_s``.

With ``--trace 1`` it reports the per-layer metrics of ``spans.py`` from a
separate traced run.  Each batch's outputs are checked; items that fail
the check are counted in ``failed`` (``failed_frac`` = failed / attempted).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give each
metric's median, quartiles and sample count.  A result file with the
same content and the run's provenance is written to
``.perfbench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import SMALL, ReferenceProcess

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SOURCE = ROOT / "src" / "dualitysim"
WORKLOAD_NAMES = ("sweep_noiseless", "render_calibrated", "analytic_grid", "weak_scan")
SETUP_REPEATS = 9
TIME_LIMIT_S = 170.0
BLAS_THREADS = "1"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    """The environment of every child: the repo's package, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.update({name: BLAS_THREADS for name in BLAS_ENV})
    return env


def child(mode: str, args, workdir: Path, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; return its JSON result."""
    command = [sys.executable, str(HERE / "worker.py"), mode, args.workload,
               str(args.seed), str(args.seconds), str(workdir)]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} run exceeded the time limit") from exc
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchmarkError(f"{mode} run exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{mode} run printed no result")
    return json.loads(lines[-1])


def summary(values: list[float], unit: str) -> dict:
    """Median, quartiles and sample count of a metric."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def git_commit() -> str | None:
    """The checked-out commit; None outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, numpy_version: str) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {name: BLAS_THREADS for name in BLAS_ENV},
        "git_commit": git_commit(),
        "seed": seed,
        # For information only; not a gated metric.
        "source_lines": sum(
            len(path.read_text().splitlines()) for path in sorted(SOURCE.glob("*.py"))
        ),
    }


def run(args) -> dict:
    if not (SOURCE / "__init__.py").is_file():
        raise BenchmarkError(f"no dualitysim package at {SOURCE}")
    deadline = time.monotonic() + TIME_LIMIT_S
    # Every child, the reference kernel's too, inherits one CPU, so the kernel
    # runs at the speed of the CPU that ran the timed work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            counts = child("trace", args, workdir, deadline)
            metrics, samples, reported = counts["metrics"], {}, {}
        else:
            wall_setup, scaled_setup = [], []
            with ReferenceProcess(SMALL, child_env()) as kernel:
                for _ in range(SETUP_REPEATS):
                    wall_setup.append(child("setup", args, workdir, deadline)["setup_s"])
                    reference_s = statistics.median(kernel.samples(3))
                    scaled_setup.append(wall_setup[-1] * SMALL.nominal_s / reference_s)
            counts = child("measure", args, workdir, deadline)
            samples = {
                "items_per_s": counts["scaled_rates"],
                "setup_s": scaled_setup,
                "wall_items_per_s": counts["rates"],
                "wall_setup_s": wall_setup,
            }
            metrics = {
                "items_per_s": summary(samples["items_per_s"], "1/s"),
                "setup_s": summary(samples["setup_s"], "s"),
                "peak_rss_mb": summary([counts["peak_rss_mb"]], "MB"),
            }
            reported = {
                "wall_items_per_s": summary(samples["wall_items_per_s"], "1/s"),
                "wall_setup_s": summary(samples["wall_setup_s"], "s"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = counts["attempted"], counts["failed"]
    reported["reference_ms"] = summary([1e3 * t for t in counts["reference_s"]], "ms")
    reported["failed_frac"] = {"value": failed / attempted, "unit": "ratio", "n": attempted}
    return {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed, counts["numpy"]),
        "metrics": metrics,
        "reported": reported,
        "samples": samples,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
        },
    }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def emit(args: argparse.Namespace, record: dict) -> None:
    """Write the result file and print the metric lines and the result."""
    results = ROOT / ".perfbench_results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")

    for metric, stats in {**record["metrics"], **record["reported"]}.items():
        spread = f" (q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g})" if "q1" in stats else ""
        count = f", n={stats['n']}" if "n" in stats else ""
        print(f"{args.workload} {metric} = {stats['value']:.6g} {stats['unit']}{spread}{count}")
    print(json.dumps(record["result"]), flush=True)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        record = run(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    emit(args, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
