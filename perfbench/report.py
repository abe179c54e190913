"""Run every workload once and print each metric by name and unit.

    python3 perfbench/report.py [--trace 0|1]

Each workload runs with run.py's default seed and length.  With
``--trace 0`` this prints items_per_s, setup_s, peak_rss_mb and
failed_frac for every workload; with ``--trace 1`` the per-layer metrics.
Exits non-zero if any workload fails to run or fails its checks.
"""

from __future__ import annotations

import argparse
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args_in = parser.parse_args()
    status = 0
    for name in run.WORKLOAD_NAMES:
        args = run.parse_args(["--workload", name, "--trace", args_in.trace])
        try:
            record = run.run(args)
        except run.BenchmarkError as exc:
            print(f"{name}: error: {exc}", file=sys.stderr)
            status = 1
            continue
        run.emit(args, record)
        status |= not record["result"]["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
