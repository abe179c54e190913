"""Run the golden command list and rewrite its recorded hashes.

``golden.json`` holds, for each CLI command, its arguments (with ``--out``
relative to a fresh working directory), its exit code and the sha256 of
its stdout and of every file it writes, next to the fingerprint of the
platform the hashes were recorded on.  ``tests/test_golden.py`` reruns
the list and compares bytes.  ``--check`` lists every changed file of
every command without rewriting anything, and exits 1 on any difference.
Refresh only on purpose, and name every changed file and the reason in
``CHANGES.md``:

    PYTHONPATH=src python tests/golden/refresh.py [--check]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("golden.json")


def fingerprint() -> dict:
    """What the exact bytes may depend on: numpy, the CPU and the C library."""
    return {"numpy": np.__version__, "machine": platform.machine(),
            "libc": list(platform.libc_ver())}


def run(command: str, workdir: Path) -> tuple[int, dict[str, str]]:
    """Exit code of ``cli.main`` on the arguments ``command`` run in
    ``workdir``, and the sha256 of its stdout and of each file it wrote
    under its ``--out`` path."""
    from dualitysim import cli

    argv = shlex.split(command)
    out = Path(argv[argv.index("--out") + 1])
    root = out if argv[0] == "render" else out.parent
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        hashes = {"stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            hashes[path.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    finally:
        os.chdir(cwd)
    return code, hashes


def mismatches(commands: list[dict], workdir: Path) -> list[str]:
    """One line per difference between each recorded command and its rerun in
    ``workdir``: its exit code, and each file changed, missing or new."""
    found = []
    for record in commands:
        command, recorded = record["command"], record["sha256"]
        code, hashes = run(command, workdir)
        if code != record["exit"]:
            found.append(f"{command}: exit {code}, recorded {record['exit']}")
        for name in sorted(recorded.keys() | hashes.keys()):
            if name not in hashes:
                found.append(f"{command}: {name} not written")
            elif name not in recorded:
                found.append(f"{command}: {name} not recorded")
            elif hashes[name] != recorded[name]:
                found.append(f"{command}: {name} changed")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="list every difference from golden.json and rewrite nothing")
    args = parser.parse_args()
    golden = json.loads(GOLDEN.read_text())
    if args.check:
        if golden["fingerprint"] != fingerprint():
            print(f"note: recorded on {golden['fingerprint']}, this is {fingerprint()}")
        with tempfile.TemporaryDirectory() as tmp:
            found = mismatches(golden["commands"], Path(tmp))
        print("\n".join(found) or f"all {len(golden['commands'])} commands match {GOLDEN}")
        return 1 if found else 0
    with tempfile.TemporaryDirectory() as tmp:
        for record in golden["commands"]:
            record["exit"], record["sha256"] = run(record["command"], Path(tmp))
    golden["fingerprint"] = fingerprint()
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"rewrote {GOLDEN} for {golden['fingerprint']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
