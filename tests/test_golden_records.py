"""Golden records: the absolute output of every catalog model, pinned.

The other tests compare paths with each other and check properties. This one
compares ``dt_bound`` and the ``integrate`` records of all ten models with the
values committed in ``golden_records.json``, so a change that moves every path
the same way (a default, an initial state, a shared building block) shows
here.

Inputs: unit constants, ``default_initial_state(mode=2, amplitude=0.15)``,
n = 16 and 64 on a unit domain, dt = min(1e-3, dt_bound), T = 0.5 and
``record_every = 50``; all deterministic, no random stream. Values are stored
as float hex. They are compared at 1e-13 relative to max(1, |value|), with
``res_MdE`` exactly 0, and bitwise where the numpy version that wrote the file
is the one running.

Regenerate (only on purpose; say in CHANGES.md what moved and why):

    PYTHONPATH=src python tests/test_golden_records.py
"""

import json
import math
import pathlib

import numpy as np
import pytest

import beamgeneric as bg
from conftest import new_needs_scipy

GOLDEN = pathlib.Path(__file__).with_name("golden_records.json")
SIZES = (16, 64)
FIELDS = ("t", "energy", "entropy", "mech_energy", "res_l_ds", "res_m_de", "theta_min")
TOLERANCE = 1e-13


def _run(mid, n):
    """``dt_bound`` and the records of model ``mid`` on n nodes, as floats."""
    grid = bg.Grid(n, 1.0)
    model = bg.build_model(mid, bg.ModelParams(), grid)
    z0 = bg.default_initial_state(mid, grid, mode=2, amplitude=0.15)
    cfg = bg.IntegratorConfig(dt=min(1e-3, model.dt_bound), t_end=0.5, record_every=50)
    records = bg.integrate(model, z0, cfg)
    return model.dt_bound, [[getattr(r, name) for name in FIELDS] for r in records]


def _regenerate():
    models = {}
    for mid in bg.ALL_MODEL_IDS:
        models[str(mid)] = {}
        for n in SIZES:
            bound, rows = _run(mid, n)
            models[str(mid)][str(n)] = {
                "dt_bound": bound.hex(),
                "records": [" ".join(value.hex() for value in row) for row in rows],
            }
    data = {"numpy": np.__version__, "fields": list(FIELDS), "models": models}
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _close(got, want):
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= TOLERANCE * max(1.0, abs(want))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("mid", new_needs_scipy(bg.ALL_MODEL_IDS), ids=str)
def test_records_match_the_golden_file(golden, mid, n):
    entry = golden["models"][str(mid)][str(n)]
    bound, rows = _run(mid, n)
    want_rows = [[float.fromhex(h) for h in line.split()] for line in entry["records"]]
    assert _close(bound, float.fromhex(entry["dt_bound"]))
    assert len(rows) == len(want_rows)
    m_de = FIELDS.index("res_m_de")
    for i, (row, want) in enumerate(zip(rows, want_rows)):
        assert row[m_de] == 0.0, f"record {i}: res_MdE {row[m_de]!r}"
        bad = [name for name, g, w in zip(FIELDS, row, want) if not _close(g, w)]
        assert not bad, f"record {i} (t = {row[0]:g}) moved in {bad}: {row} != {want}"
    if golden["numpy"] == np.__version__:
        assert bound.hex() == entry["dt_bound"]
        assert [" ".join(value.hex() for value in row) for row in rows] == entry["records"]


if __name__ == "__main__":
    _regenerate()
