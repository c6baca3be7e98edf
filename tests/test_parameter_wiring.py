"""Cross-checks with every constant distinct and a non-unit domain.

At unit parameters a swapped coefficient (say gamma for delta) is invisible;
with all constants distinct, the assembled operators, the hand-coded
transcription, the energy gradients and the finite-difference oracle must
still agree, which pins each constant to its slot.  One constant moved at a
time pins the table of the constants each model reads.
"""

import dataclasses

import numpy as np
import pytest

import beamgeneric as bg
from beamgeneric import Grid, ModelParams, fd_gradient
from beamgeneric.catalog import MODEL_CONSTANTS
from conftest import ALL_IDS, rel_inf

SCRAMBLED = ModelParams(
    k=1.3, b=0.6, k0=2.1, l=0.8,
    delta1=0.15, delta2=1.9,
    gamma1=0.4, gamma2=1.1, gamma3=0.7,
    gamma=0.9, delta=1.7, beta=2.2,
    kappa=0.55, kappa1=0.35, kappa2=1.25, K=0.45,
    alpha=1.4,
)


@pytest.fixture(scope="module")
def scrambled_models():
    grid = Grid(48, 2.5)
    return {mid: bg.build_model(mid, SCRAMBLED, grid) for mid in ALL_IDS}


@pytest.mark.parametrize("mid", ALL_IDS, ids=str)
def test_rhs_equivalence_scrambled(scrambled_models, mid):
    model = scrambled_models[mid]
    rng = np.random.default_rng(500 + list(ALL_IDS).index(mid))
    for _ in range(10):
        z = bg.random_state(model, rng)
        a = bg.generic_rhs(model, z).flat
        b = bg.direct_rhs(model, z).flat
        assert rel_inf(a, b) <= 1e-12


@pytest.mark.parametrize("mid", ALL_IDS, ids=str)
def test_brackets_scrambled(scrambled_models, mid):
    report = bg.verify_brackets(scrambled_models[mid], trials=10, seed=91)
    assert report.all_passed, report


@pytest.mark.parametrize("mid", ALL_IDS, ids=str)
def test_gradient_oracle_scrambled(scrambled_models, mid):
    model = scrambled_models[mid]
    rng = np.random.default_rng(700 + list(ALL_IDS).index(mid))
    for _ in range(3):
        z = bg.random_state(model, rng)
        analytic = bg.grad_energy(model, z).flat
        numeric = fd_gradient(lambda s: bg.energy(model, s), z).flat
        err = float(np.max(np.abs(analytic - numeric))) / (1.0 + float(np.max(np.abs(analytic))))
        assert err <= 1e-6


@pytest.mark.parametrize("mid", ALL_IDS, ids=str)
def test_model_constants_are_the_ones_read(mid):
    # a constant set to 1.7 moves the right-hand sides, the energy or the
    # entropy at a random state exactly when the table lists it, so a config
    # that sets any other is rightly refused
    grid = Grid(8, 1.0)
    z = bg.random_state(bg.build_model(mid, ModelParams(), grid), np.random.default_rng(3))

    def observed(params):
        model = bg.build_model(mid, params, grid)
        return [bg.generic_rhs(model, z).flat, bg.direct_rhs(model, z).flat,
                bg.energy(model, z), bg.entropy(model, z)]

    unit = observed(ModelParams())
    for field in dataclasses.fields(ModelParams):
        moved = observed(dataclasses.replace(ModelParams(), **{field.name: 1.7}))
        changed = not all(np.array_equal(a, b) for a, b in zip(unit, moved))
        assert changed == (field.name in MODEL_CONSTANTS[mid]), field.name
