"""The reference kernel that the benchmark's timings are scaled by.

The shared machine's speed drifts by up to 2x over tens of seconds.
Timings are scaled by the time of a fixed kernel measured next to them,
to the speed at which the kernel takes its nominal time, so that they
compare across runs.  The kernel never calls dualitysim, and it runs in
an interpreter of its own (``ReferenceProcess``): it shares neither the
allocator nor the page state of the process it scales, and its memory
does not count in that process's peak RSS.

    python3 perfbench/reference.py GRID REPEATS

serves kernel timings: each line read from stdin holds a sample count,
and that many kernel times are written back as one JSON list.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Reference:
    """A numpy and Python kernel shaped like the image pipeline: grid
    geometry, a complex field, its intensity and an angular bincount on a
    ``grid`` x ``grid`` raster, ``repeats`` times, then a short loop."""

    grid: int
    repeats: int
    nominal_s: float

    def seconds(self) -> float:
        import numpy as np

        start = time.perf_counter()
        n = self.grid
        for _ in range(self.repeats):
            ys, xs = np.indices((n, n))
            dx, dy = xs - (n - 1) / 2, ys - (n - 1) / 2
            radius, angle = np.hypot(dx, dy), np.arctan2(dy, dx)
            field = radius**3 * np.exp(-(radius**2) * 64.0 / n**2) * np.exp(3j * angle)
            intensity = np.abs(field + 0.5 * field.conj()) ** 2
            bins = (np.degrees(angle) / 3.0 + 0.5).astype(int) % 120
            np.bincount(bins.ravel(), weights=intensity.ravel(), minlength=120)
        total = 0
        for i in range(5000):
            total += i * i
        return time.perf_counter() - start


# Most workloads are scaled by four passes over a 128^2 raster.  The sweep
# allocates fresh 512^2 frames for every row and slows with memory traffic
# that the small kernel does not feel, so it is scaled by a 512^2 kernel.
SMALL = Reference(grid=128, repeats=4, nominal_s=0.005)
REFERENCES = {"sweep_noiseless": Reference(grid=512, repeats=1, nominal_s=0.025)}


class ReferenceProcess:
    """Context manager: a child interpreter that times ``reference`` on
    request.  Entering it waits until the child has run the kernel once,
    so that its start-up does not overlap what is timed next."""

    def __init__(self, reference: Reference, env: dict | None = None):
        self.reference = reference
        self.env = env
        self.process: subprocess.Popen | None = None

    def __enter__(self) -> ReferenceProcess:
        self.process = subprocess.Popen(
            [sys.executable, __file__, str(self.reference.grid), str(self.reference.repeats)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=self.env,
        )
        try:
            self.samples(1)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        process, self.process = self.process, None
        process.stdin.close()  # the child ends at end of input
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()

    def samples(self, count: int) -> list[float]:
        """``count`` kernel times, run back to back."""
        self.process.stdin.write(f"{count}\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("the reference process ended")
        return json.loads(line)

    def after(self, batch_s: float) -> float:
        """Mean kernel time over samples taking about 10% of ``batch_s``.

        The mean, not the median: a batch's time includes the machine's
        short slow spells, and so must the kernel time that scales it.
        """
        count = min(max(round(0.1 * batch_s / self.reference.nominal_s), 1), 64)
        samples = self.samples(count)
        return sum(samples) / len(samples)


def serve(reference: Reference) -> None:
    for line in sys.stdin:
        print(json.dumps([reference.seconds() for _ in range(int(line))]), flush=True)


if __name__ == "__main__":
    serve(Reference(grid=int(sys.argv[1]), repeats=int(sys.argv[2]), nominal_s=0.0))
