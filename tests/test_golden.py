"""Byte-for-byte replay of recorded exact CLI output.

``golden/cli_exact.jsonl`` holds one ``{"argv", "exit", "stdout"}`` record per
float-free command: classifications, the exact verify checks (with cancelling
``--expr`` candidates, conserved and not), reductions, orbit searches and
parse errors.  Every residual and candidate in it is printed by the one
canonical printer, so any change to canonical forms or to their printing
shows up here.
"""

import json
import pathlib

import pytest

from painstrata import cli

RECORDS = [json.loads(line) for line in
           (pathlib.Path(__file__).parent / "golden" / "cli_exact.jsonl")
           .read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"])[:80] for r in RECORDS])
def test_replay(capsys, record):
    code = cli.main(record["argv"])
    assert capsys.readouterr().out == record["stdout"]
    assert code == record["exit"]
