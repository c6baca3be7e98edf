"""Golden verify output: ``verify --model all --trials 20 --seed 0``, pinned.

The verifier's residuals come from seeded draws evaluated in stacks, so any
change to the draw order, the stacking or an operator's arithmetic moves
them.  Its standard output is compared with the text committed in
``golden_verify.json``: bytewise where the numpy version that wrote the file
is the one running; otherwise line by line, as the same 50 lines (ten models
times five checks) in the same order, each passing with a residual at most
the tolerance.  The verifier is numpy only, so this also runs where scipy is
not installed.

Regenerate (only on purpose; say in CHANGES.md what moved and why):

    PYTHONPATH=src python tests/test_golden_verify.py
"""

import contextlib
import io
import json
import pathlib

import numpy as np

import beamgeneric as bg
from beamgeneric import cli

GOLDEN = pathlib.Path(__file__).with_name("golden_verify.json")
ARGV = ["verify", "--model", "all", "--trials", "20", "--seed", "0"]


def _regenerate():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(ARGV) == 0
    data = {"numpy": np.__version__, "argv": ARGV, "stdout": out.getvalue()}
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def test_verify_output_matches_the_golden_file(capsys):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["argv"] == ARGV
    assert cli.main(ARGV) == 0
    got = capsys.readouterr().out
    if golden["numpy"] == np.__version__:
        assert got == golden["stdout"]
    lines = [line.split() for line in got.splitlines()]
    want = [line.split() for line in golden["stdout"].splitlines()]
    assert len(lines) == 5 * len(bg.ALL_MODEL_IDS) == len(want)
    for line, golden_line in zip(lines, want):
        model, check, residual, tolerance, status = line
        assert [model, check] == golden_line[:2]
        assert float(residual) <= float(tolerance) == bg.engine.BRACKET_TOLERANCE, line
        assert status == "PASS", line


if __name__ == "__main__":
    _regenerate()
