"""Byte-identity of the CLI outputs recorded in ``tests/golden/golden.json``.

Every command of the golden list runs through ``cli.main`` in a fresh
directory; its exit code, stdout and every file it writes must carry the
recorded sha256.  The bytes are only pinned on the recording platform:
elsewhere the test is skipped with the fingerprint that differs.
"""

import json

import pytest

from golden.refresh import GOLDEN, fingerprint, run

RECORD = json.loads(GOLDEN.read_text())


def test_outputs_keep_their_recorded_bytes(tmp_path):
    here = fingerprint()
    if here != RECORD["fingerprint"]:
        pytest.skip(f"golden bytes recorded on {RECORD['fingerprint']}, this is {here}")
    for record in RECORD["commands"]:
        command = record["command"]
        code, hashes = run(command, tmp_path)
        assert code == record["exit"], f"{command}: exit {code}"
        assert sorted(hashes) == sorted(record["sha256"]), f"{command}: files differ"
        for name, digest in record["sha256"].items():
            assert hashes[name] == digest, f"{command}: {name} changed"
