import math

import numpy as np
import pytest

import beamgeneric as bg
from beamgeneric import (
    Grid,
    ModelParams,
    PositivityError,
    State,
    energy,
    entropy,
    fd_gradient,
    grad_energy,
    grad_entropy,
    mechanical_energy,
)
from conftest import ALL_IDS, rel_inf


@pytest.fixture(scope="module")
def grid16():
    return Grid(16, 1.0)


@pytest.fixture(scope="module")
def models16(grid16):
    return {mid: bg.build_model(mid, ModelParams(), grid16) for mid in ALL_IDS}


def test_energy_of_equilibrium(models16, grid16):
    for mid, model in models16.items():
        z = model.reference_state
        if mid is bg.ModelId.TIMOSHENKO_NEW:
            # all quadratic terms vanish; the thermal content integrates to the
            # domain length
            assert energy(model, z) == pytest.approx(grid16.length)
        else:
            assert energy(model, z) == 0.0


def test_energy_uniform_velocity():
    grid = Grid(4, 1.0)
    model = bg.build_model("TimoshenkoFrictional", ModelParams(), grid)
    z = State.zeros(model.layout)
    z.field("p")[:] = 2.0
    assert energy(model, z) == pytest.approx(2.0)


def test_energy_layout_mismatch():
    model4 = bg.build_model("TimoshenkoFrictional", ModelParams(), Grid(4, 1.0))
    model8 = bg.build_model("TimoshenkoFrictional", ModelParams(), Grid(8, 1.0))
    z = State.zeros(model8.layout)
    with pytest.raises(ValueError):
        energy(model4, z)


def test_entropy_reservoir_scaling():
    grid = Grid(4, 1.0)
    model = bg.build_model("TimoshenkoFrictional", ModelParams(alpha=2.0), grid)
    z = State.zeros(model.layout)
    z.reservoir = 3.0
    assert entropy(model, z) == pytest.approx(6.0)


def test_entropy_log_theta():
    grid = Grid(4, 1.0)
    model = bg.build_model("TimoshenkoNew", ModelParams(), grid)
    z = model.reference_state.copy()
    assert entropy(model, z) == pytest.approx(0.0)
    z.field("theta")[0] = 0.0
    with pytest.raises(PositivityError):
        entropy(model, z)
    with pytest.raises(PositivityError):
        grad_entropy(model, z)


def test_grad_energy_at_equilibrium(models16):
    for mid, model in models16.items():
        g = grad_energy(model, model.reference_state)
        for name in model.layout.field_order:
            if mid is bg.ModelId.TIMOSHENKO_NEW and name == "theta":
                np.testing.assert_array_equal(g.field(name), np.ones(model.grid.n))
            else:
                np.testing.assert_array_equal(g.field(name), np.zeros(model.grid.n))
        if model.layout.has_reservoir:
            assert g.reservoir == 1.0


def test_grad_entropy_values(grid16):
    model = bg.build_model("TimoshenkoHeatI", ModelParams(alpha=1.0), grid16)
    g = grad_entropy(model, State.zeros(model.layout))
    assert g.reservoir == 1.0
    assert np.all(g.flat[:-1] == 0.0)

    new = bg.build_model("TimoshenkoNew", ModelParams(), grid16)
    z = new.reference_state.copy()
    z.field("theta")[:] = 2.0
    g = grad_entropy(new, z)
    np.testing.assert_allclose(g.field("theta"), np.full(grid16.n, 0.5))


def test_fd_gradient_of_quadratic(grid16):
    model = bg.build_model("TimoshenkoFrictional", ModelParams(), grid16)
    rng = np.random.default_rng(8)
    z = State(model.layout, rng.standard_normal(model.layout.flat_dim))

    def half_p_sq(state):
        p = state.field("p")
        return 0.5 * grid16.inner(p, p)

    g = fd_gradient(half_p_sq, z)
    np.testing.assert_allclose(g.field("p"), z.field("p"), rtol=1e-7, atol=1e-8)
    np.testing.assert_allclose(g.field("phi"), np.zeros(grid16.n), atol=1e-8)


def test_fd_gradient_of_energy_at_equilibrium(grid16):
    model = bg.build_model("TimoshenkoFrictional", ModelParams(), grid16)
    g = fd_gradient(lambda s: energy(model, s), State.zeros(model.layout))
    assert g.reservoir == pytest.approx(1.0, rel=1e-9)
    assert np.max(np.abs(g.flat[:-1])) <= 1e-9


def test_fd_gradient_of_entropy(grid16):
    model = bg.build_model("TimoshenkoFrictional", ModelParams(alpha=1.5), grid16)
    rng = np.random.default_rng(9)
    z = State(model.layout, rng.standard_normal(model.layout.flat_dim))
    g = fd_gradient(lambda s: entropy(model, s), z)
    assert g.reservoir == pytest.approx(1.5, rel=1e-9)
    assert np.max(np.abs(g.flat[:-1])) <= 1e-9


@pytest.mark.parametrize("rel_step", [0.0, -1e-6, math.inf, math.nan])
def test_fd_gradient_rejects_bad_steps(grid16, rel_step):
    model = bg.build_model("TimoshenkoFrictional", ModelParams(), grid16)
    with pytest.raises(ValueError, match="positive and finite"):
        fd_gradient(lambda s: energy(model, s), State.zeros(model.layout), rel_step=rel_step)


def test_fd_gradient_propagates_domain_errors(grid16):
    model = bg.build_model("TimoshenkoNew", ModelParams(), grid16)
    z = model.reference_state.copy()
    z.field("theta")[0] = 1e-9  # any probe step pushes this below zero
    with pytest.raises(PositivityError):
        fd_gradient(lambda s: entropy(model, s), z)


@pytest.mark.parametrize("mid", ALL_IDS, ids=str)
def test_gradients_match_fd_oracle(models16, mid):
    """Analytic gradients against the finite-difference oracle, 20 seeded states."""
    model = models16[mid]
    rng = np.random.default_rng(hash(mid.value) % 2**32)
    for _ in range(20):
        z = bg.random_state(model, rng)
        for func, grad in ((energy, grad_energy), (entropy, grad_entropy)):
            analytic = grad(model, z).flat
            numeric = fd_gradient(lambda s: func(model, s), z).flat
            tol = 1e-6 * (1.0 + float(np.max(np.abs(analytic))))
            assert float(np.max(np.abs(analytic - numeric))) <= tol


def test_grad_energy_linearity(models16):
    """Models with quadratic energy have gradients affine in z."""
    rng = np.random.default_rng(77)
    for mid, model in models16.items():
        if mid is bg.ModelId.TIMOSHENKO_NEW:
            continue
        z1 = bg.random_state(model, rng)
        z2 = bg.random_state(model, rng)
        combo = State(model.layout, 0.7 * z1.flat + 1.3 * z2.flat)
        g0 = grad_energy(model, State.zeros(model.layout)).flat
        lhs = grad_energy(model, combo).flat - g0
        rhs = 0.7 * (grad_energy(model, z1).flat - g0) + 1.3 * (grad_energy(model, z2).flat - g0)
        assert rel_inf(lhs, rhs) <= 1e-12


def test_mechanical_energy(models16, grid16):
    fric = models16[bg.ModelId.TIMOSHENKO_FRICTIONAL]
    z = State.zeros(fric.layout)
    z.field("p")[:] = 2.0
    z.reservoir = 5.0
    assert mechanical_energy(fric, z) == pytest.approx(2.0)
    assert energy(fric, z) == pytest.approx(7.0)

    new = models16[bg.ModelId.TIMOSHENKO_NEW]
    z = new.reference_state.copy()
    z.field("p")[:] = 2.0
    assert mechanical_energy(new, z) == pytest.approx(2.0)
