"""Byte-identity of the CLI outputs recorded in ``tests/golden/golden.json``.

Every command of the golden list runs through ``cli.main`` in a fresh
directory; its exit code, stdout and every file it writes must carry the
recorded sha256, and a failure lists every difference of every command.
The bytes are only pinned on the recording platform: elsewhere the test
is skipped with the fingerprint that differs.
"""

import json

import pytest

from golden.refresh import GOLDEN, fingerprint, mismatches

RECORD = json.loads(GOLDEN.read_text())


def test_outputs_keep_their_recorded_bytes(tmp_path):
    here = fingerprint()
    if here != RECORD["fingerprint"]:
        pytest.skip(f"golden bytes recorded on {RECORD['fingerprint']}, this is {here}")
    # Every command runs, so one failure lists every changed file at once.
    found = mismatches(RECORD["commands"], tmp_path)
    assert not found, "\n".join(found)
