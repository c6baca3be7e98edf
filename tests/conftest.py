import importlib.util

import numpy as np
import pytest

import beamgeneric as bg

ALL_IDS = bg.ALL_MODEL_IDS

DAMPED_IDS = tuple(m for m in ALL_IDS if m not in (bg.ModelId.TIMOSHENKO_UNDAMPED,
                                                   bg.ModelId.BRESSE_UNDAMPED))


def _scipy_found():
    """Whether the import system finds scipy, asked without importing it; a
    finder that refuses scipy counts as finding none."""
    try:
        return importlib.util.find_spec("scipy") is not None
    except ImportError:
        return False


#: skips a test, or one parameter of it, where scipy cannot be found.  A test
#: needs scipy when it steps TimoshenkoNew or calls a compiled right-hand side
#: (both load scipy's CSR kernel), or builds scipy's own matrix; it imports
#: scipy inside itself, so every other test runs where scipy is not installed.
needs_scipy = pytest.mark.skipif(not _scipy_found(), reason="needs scipy")


def new_needs_scipy(models):
    """``models`` (ids or names) as parameters, the TimoshenkoNew case marked
    ``needs_scipy``."""
    return [pytest.param(m, marks=needs_scipy) if m == bg.ModelId.TIMOSHENKO_NEW else m
            for m in models]


def rel_inf(a, b):
    """Infinity-norm difference relative to max(1, magnitudes)."""
    a = np.asarray(a)
    b = np.asarray(b)
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


@pytest.fixture(scope="session")
def grid64():
    return bg.Grid(64, 1.0)


@pytest.fixture(scope="session")
def grid32():
    return bg.Grid(32, 1.0)


@pytest.fixture(scope="session")
def models32(grid32):
    return {mid: bg.build_model(mid, bg.ModelParams(), grid32) for mid in ALL_IDS}


@pytest.fixture(scope="session")
def models64(grid64):
    return {mid: bg.build_model(mid, bg.ModelParams(), grid64) for mid in ALL_IDS}
