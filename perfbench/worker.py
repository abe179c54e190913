"""One benchmark process, started by run.py in a fresh interpreter.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS WORKDIR

MODE is ``setup`` (time from ``import dualitysim`` to the end of one
warm-up item), ``measure`` (warm up, then time batches for SECONDS with
tracing off) or ``trace`` (half the time untraced, half traced, giving
the per-layer metrics and the tracing overhead).  The result is printed
as one JSON object on the last line of stdout.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from reference import REFERENCES, SMALL, ReferenceProcess
from spans import Tracer, dualitysim_targets, installed_wrappers, layer_metrics, traced_modules


def measure(workload, seconds: float, kernel: ReferenceProcess, tracer=None) -> dict:
    """Run batches until ``seconds`` have passed; at least one batch.

    After each batch the reference kernel is timed for about 10% of the
    batch's time.  A batch's scaled rate is its rate times the mean kernel
    time right after it, over the nominal time.  Kernel times taken after
    the batch tracked the batch's speed better than those taken before it,
    or both (DESIGN.md).
    """
    if tracer is None:
        leftover = installed_wrappers(traced_modules())
        if leftover:
            raise RuntimeError(f"timed run with tracing wrappers installed: {leftover}")
    nominal_s = kernel.reference.nominal_s
    rates: list[float] = []
    scaled: list[float] = []
    references: list[float] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.item = index * workload.items_per_batch
        start = time.perf_counter()
        try:
            output = workload.run(index, tracer)
        except Exception:  # a batch that raises fails all its items
            traceback.print_exc()
            output = None
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.fold()
        attempted += workload.items_per_batch
        failed += workload.items_per_batch if output is None else workload.check(output)
        references.append(kernel.after(elapsed))
        rates.append(workload.items_per_batch / elapsed)
        scaled.append(rates[-1] * references[-1] / nominal_s)
        index += 1
    return {
        "rates": rates,
        "scaled_rates": scaled,
        "reference_s": references,
        "attempted": attempted,
        "failed": failed,
    }


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, workdir = argv
    seed, seconds, workdir = int(seed), float(seconds), Path(workdir)
    source = Path(__file__).resolve().parent.parent / "src"

    start = time.perf_counter()
    import dualitysim
    import dualitysim.cli  # the CLI workloads' entry point; its import is start-up work

    imported = time.perf_counter()
    if Path(dualitysim.__file__).resolve().parent.parent != source:
        raise RuntimeError(f"dualitysim imported from {dualitysim.__file__}, not {source}")
    import numpy

    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    prepared = time.perf_counter()
    workload.warmup()
    warm = time.perf_counter()

    result: dict = {"numpy": numpy.__version__}
    if mode == "setup":
        # Input generation belongs to the benchmark, not to the program.
        result["setup_s"] = (imported - start) + (warm - prepared)
    elif mode == "measure":
        with ReferenceProcess(REFERENCES.get(name, SMALL)) as kernel:
            result.update(measure(workload, seconds, kernel))
        # The kernel runs in a child of its own, which RUSAGE_SELF leaves out.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elif mode == "trace":
        with ReferenceProcess(REFERENCES.get(name, SMALL)) as kernel:
            untraced = measure(workload, seconds / 2, kernel)
            with Tracer(dualitysim_targets()) as tracer:
                traced = measure(workload, seconds / 2, kernel, tracer)
        overhead = (
            statistics.median(untraced["scaled_rates"])
            / statistics.median(traced["scaled_rates"])
            - 1.0
        )
        result.update(
            reference_s=untraced["reference_s"] + traced["reference_s"],
            attempted=untraced["attempted"] + traced["attempted"],
            failed=untraced["failed"] + traced["failed"],
            metrics=layer_metrics(tracer.totals, traced["attempted"], overhead),
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
