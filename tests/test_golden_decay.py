"""Golden decay output: ``decay`` of every catalog model at n = 32, t_end = 2
and the other keys at their defaults, pinned.

Each model's standard output is compared with the text committed in
``golden_decay.json``: bytewise where the numpy version that wrote the file
is the one running.  Otherwise the warning lines must be the same, a damped
model's rate must agree to 1e-10 relative with the same confidence text, and
an undamped model's rate, a slope at roundoff, must stay within 1e-9 of
zero.  The nine linear models run numpy only, so their cases also run where
scipy is not installed (``-k "not TimoshenkoNew"``).

Regenerate (only on purpose; say in CHANGES.md what moved and why):

    PYTHONPATH=src python tests/test_golden_decay.py
"""

import io
import json
import pathlib

import numpy as np
import pytest

import beamgeneric as bg
from beamgeneric import cli

GOLDEN = pathlib.Path(__file__).with_name("golden_decay.json")
CONFIG = "model = {model}\nn = 32\nt_end = 2\n"


def _decay_stdout(model: str) -> str:
    out = io.StringIO()
    assert cli.cmd_decay(cli.parse_config_text(CONFIG.format(model=model)), out=out) == 0
    return out.getvalue()


def _regenerate():
    data = {
        "numpy": np.__version__,
        "config": CONFIG,
        "stdout": {mid.value: _decay_stdout(mid.value) for mid in bg.ALL_MODEL_IDS},
    }
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def _rate_line(line: str):
    """(model, rate, confidence text) of a ``decay_rate`` line."""
    model, key, rate, confidence = line.split(" ", 3)
    assert key == "decay_rate", line
    return model, float(rate), confidence


@pytest.mark.parametrize("model", [mid.value for mid in bg.ALL_MODEL_IDS])
def test_decay_output_matches_the_golden_file(model):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["config"] == CONFIG
    want = golden["stdout"][model]
    got = _decay_stdout(model)
    if golden["numpy"] == np.__version__:
        assert got == want
    *warnings, line = got.splitlines()
    *want_warnings, want_line = want.splitlines()
    assert warnings == want_warnings
    name, rate, confidence = _rate_line(line)
    want_name, want_rate, want_confidence = _rate_line(want_line)
    assert name == want_name == model
    if bg.build_model(model, bg.ModelParams(), bg.Grid(32, 1.0)).damped:
        assert abs(rate - want_rate) <= 1e-10 * abs(want_rate), line
        assert confidence == want_confidence
    else:
        assert abs(rate) <= 1e-9, line


if __name__ == "__main__":
    _regenerate()
