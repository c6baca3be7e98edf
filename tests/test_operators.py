import numpy as np
import pytest

import beamgeneric as bg
from beamgeneric import (
    CotangentVector,
    Grid,
    ModelParams,
    State,
    apply_L,
    apply_M,
    grad_energy,
    grad_entropy,
    mixed_inner,
)
from beamgeneric.operators import BLOCK_KINDS
from conftest import ALL_IDS, rel_inf


@pytest.fixture(scope="module")
def grid():
    return Grid(32, 1.0)


@pytest.fixture(scope="module")
def models(grid):
    return {mid: bg.build_model(mid, ModelParams(), grid) for mid in ALL_IDS}


def test_apply_L_dual_frictional_formula(models, grid):
    model = models[bg.ModelId.TIMOSHENKO_FRICTIONAL]
    rng = np.random.default_rng(2)
    z = bg.random_state(model, rng)
    out = apply_L(model, z, grad_energy(model, z))
    k, b = model.params.k, model.params.b
    g = grid.d1(z.field("phi")) + z.field("psi")
    np.testing.assert_array_equal(out.field("phi"), z.field("p"))
    np.testing.assert_array_equal(out.field("psi"), z.field("q"))
    assert rel_inf(out.field("p"), k * grid.d1(g)) <= 1e-14
    assert rel_inf(out.field("q"), b * grid.d1(grid.d1(z.field("psi"))) - k * g) <= 1e-14
    assert out.reservoir == 0.0


def test_apply_L_zero_cotangent(models):
    model = models[bg.ModelId.BRESSE_HEAT_II]
    z = bg.random_state(model, np.random.default_rng(3))
    out = apply_L(model, z, CotangentVector.zeros(model.layout))
    np.testing.assert_array_equal(out.flat, np.zeros(model.layout.flat_dim))


def test_degeneracy_L_dS(models):
    rng = np.random.default_rng(4)
    for model in models.values():
        for _ in range(20):
            z = bg.random_state(model, rng)
            ds = grad_entropy(model, z)
            res = np.max(np.abs(apply_L(model, z, ds).flat))
            assert res <= 1e-12 * max(1.0, np.max(np.abs(ds.flat)))


def test_degeneracy_M_dE(models):
    rng = np.random.default_rng(5)
    for model in models.values():
        for _ in range(20):
            z = bg.random_state(model, rng)
            de = grad_energy(model, z)
            res = np.max(np.abs(apply_M(model, z, de).flat))
            assert res <= 1e-12 * max(1.0, np.max(np.abs(de.flat)))


def test_apply_M_heat_type_i_values(grid):
    model = bg.build_model("TimoshenkoHeatI", ModelParams(alpha=1.0, kappa=1.3), grid)
    rng = np.random.default_rng(6)
    z = bg.random_state(model, rng)
    out = apply_M(model, z, grad_entropy(model, z))
    kappa = 1.3
    theta = z.field("theta")
    for name in ("phi", "psi", "p", "q"):
        np.testing.assert_array_equal(out.field(name), np.zeros(grid.n))
    assert rel_inf(out.field("theta"), kappa * grid.d1(grid.d1(theta))) <= 1e-13
    dth = grid.d1(theta)
    assert out.reservoir == pytest.approx(kappa * grid.inner(dth, dth), rel=1e-13)


def test_apply_M_frictional_entropy_production():
    grid = Grid(4, 1.0)
    model = bg.build_model("TimoshenkoFrictional", ModelParams(alpha=1.0), grid)
    z = State.zeros(model.layout)
    z.field("p")[:] = 2.0
    out = apply_M(model, z, grad_entropy(model, z))
    np.testing.assert_allclose(out.field("p"), np.full(4, -2.0))
    np.testing.assert_array_equal(out.field("q"), np.zeros(4))
    assert out.reservoir == pytest.approx(4.0)


def test_factored_rows_cancel_on_grad_energy(models):
    rng = np.random.default_rng(7)
    for model in models.values():
        if not model.m_rows:
            assert model.m_rows == ()
            continue
        z = bg.random_state(model, rng)
        de = grad_energy(model, z)
        for row in model.m_rows:
            assert np.max(np.abs(row.apply(z, de))) <= 1e-12


def test_factored_heat_row_cancellation(models, grid):
    model = models[bg.ModelId.TIMOSHENKO_HEAT_I]
    z = bg.random_state(model, np.random.default_rng(8))
    xi = CotangentVector.zeros(model.layout)
    xi.field("theta")[:] = z.field("theta")
    xi.reservoir = 1.0
    row, = model.m_rows
    np.testing.assert_array_equal(row.apply(z, xi), np.zeros(grid.n))


def test_nonlinear_model_entropy_production_constant_theta(models):
    model = models[bg.ModelId.TIMOSHENKO_NEW]
    z = model.reference_state.copy()
    z.field("theta")[:] = 1.7
    ds = grad_entropy(model, z)
    production = mixed_inner(model.layout, ds.flat, apply_M(model, z, ds).flat)
    assert production == pytest.approx(0.0, abs=1e-13)


def test_antisymmetry_symmetry_psd(models):
    rng = np.random.default_rng(9)
    for model in models.values():
        for _ in range(20):
            z = bg.random_state(model, rng)
            xi = bg.random_cotangent(model.layout, rng)
            eta = bg.random_cotangent(model.layout, rng)
            b1 = mixed_inner(model.layout, xi.flat, apply_L(model, z, eta).flat)
            b2 = mixed_inner(model.layout, eta.flat, apply_L(model, z, xi).flat)
            assert abs(b1 + b2) <= 1e-12 * max(1.0, abs(b1), abs(b2))
            s1 = mixed_inner(model.layout, xi.flat, apply_M(model, z, eta).flat)
            s2 = mixed_inner(model.layout, eta.flat, apply_M(model, z, xi).flat)
            assert abs(s1 - s2) <= 1e-12 * max(1.0, abs(s1), abs(s2))
            quad = mixed_inner(model.layout, xi.flat, apply_M(model, z, xi).flat)
            assert quad >= -1e-12 * max(1.0, abs(quad))


def test_shape_mismatch_errors(models):
    small = bg.build_model("TimoshenkoFrictional", ModelParams(), Grid(8, 1.0))
    big = bg.build_model("TimoshenkoFrictional", ModelParams(), Grid(16, 1.0))
    z = State.zeros(big.layout)
    xi = CotangentVector.zeros(big.layout)
    with pytest.raises(ValueError):
        apply_L(small, z, xi)
    with pytest.raises(ValueError):
        apply_M(small, z, xi)
    # a state of the model's layout with a cotangent of another
    for apply in (apply_L, apply_M):
        with pytest.raises(ValueError, match="cotangent layout does not match"):
            apply(small, State.zeros(small.layout), xi)


@pytest.mark.parametrize("kind", ["d2", "from_scalar", "to_scalar", "scalar"])
def test_block_rejects_kinds_outside_the_catalog(kind):
    # M has only its factored form, so L's four kinds are the only ones
    assert BLOCK_KINDS == ("identity", "d1", "mul_d1", "d1_mul")
    with pytest.raises(ValueError, match="unknown block kind"):
        bg.Block(kind, 1.0)


@pytest.mark.parametrize("kind, a", [
    ("identity", "theta"), ("d1", "theta"), ("mul_d1", None), ("d1_mul", None),
])
def test_block_coefficient_field_matches_kind(kind, a):
    with pytest.raises(ValueError, match="coefficient field"):
        bg.Block(kind, 1.0, a)


def test_public_names_resolve_once():
    assert len(bg.__all__) == len(set(bg.__all__))
    for name in bg.__all__:
        assert hasattr(bg, name), name
