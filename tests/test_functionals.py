import itertools
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
from beamgeneric.functionals import SquareTerm
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


@pytest.mark.parametrize("mid", (bg.ModelId.TIMOSHENKO_FRICTIONAL, bg.ModelId.TIMOSHENKO_NEW), ids=str)
def test_mechanical_energy_keeps_its_precision_beside_a_large_rest(models16, mid):
    # 5e-21 of square terms beside a reservoir of 1 (or theta = 1): a sum of
    # the squares keeps it to roundoff, the total less the rest reads 0
    model = models16[mid]
    z = model.reference_state.copy()
    z.field("p")[:] = 1e-10
    if model.layout.has_reservoir:
        z.reservoir = 1.0
    assert abs(mechanical_energy(model, z) - 5e-21) <= 1e-15 * 5e-21
    assert energy(model, z) == 1.0


def _same_bits(got, want):
    """Bitwise equal, NaNs in the same places whatever their bits."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


def _special_states(model, rng):
    """Rows of a stack: a plain state, then states with -0.0, +-inf or NaN
    slots in every field, and the all -0.0 state."""
    layout = model.layout
    n, dim = layout.grid.n, layout.flat_dim
    rows = rng.standard_normal((6, dim))
    rows[1, ::2] = -0.0
    for row, value in zip(rows[2:5], (np.inf, -np.inf, np.nan)):
        row[3:layout.n_fields * n:n] = value
    rows[5] = -0.0
    return rows


@pytest.mark.parametrize("n", (16, 64))
def test_square_terms_equal_the_combination_sums_bitwise(n):
    # a square term of one part skips the zero-filled sum of its combination;
    # the energy and the mechanical energy must still be bitwise the sums of
    # 0.5 * coeff * inner(g, g) over combination(z), on single states and on
    # stacks, through -0.0, infinities and NaNs
    rng = np.random.default_rng(n)
    grid = Grid(n, 1.0)
    with np.errstate(all="ignore"):
        for mid in ALL_IDS:
            model = bg.build_model(mid, ModelParams(), grid)
            squares = [t for t in model.energy_terms if isinstance(t, SquareTerm)]
            others = [t for t in model.energy_terms if not isinstance(t, SquareTerm)]
            rows = _special_states(model, rng)
            for z in [State(model.layout, row) for row in rows] + [State._stack(model.layout, rows)]:
                mech = sum(0.5 * t.coeff * grid.inner(t.combination(z), t.combination(z))
                           for t in squares)
                total = sum((t.value(z) for t in others), mech)
                if model.layout.has_reservoir:
                    total = total + z.reservoir
                assert _same_bits(mechanical_energy(model, z), mech), mid
                assert _same_bits(energy(model, z), total), mid
        # the factors and derivatives the catalog's one-part terms do not use
        model = bg.build_model(bg.ModelId.TIMOSHENKO_FRICTIONAL, ModelParams(), grid)
        z = State._stack(model.layout, _special_states(model, rng))
        for differentiate, factor in itertools.product((False, True), (1.0, -0.5, 3.0)):
            term = SquareTerm(0.7, (("psi", differentiate, factor),))
            g = term.combination(z)
            assert _same_bits(term.value(z), 0.5 * 0.7 * grid.inner(g, g)), (differentiate, factor)


def _zero_filled_combination(term, z):
    """g summed onto zeros, every part times its factor: the textbook sum
    that :meth:`SquareTerm.combination` shortens."""
    grid = z.layout.grid
    g = np.zeros(z.flat.shape[:-1] + (grid.n,))
    for name, differentiate, factor in term.parts:
        u = z.field(name)
        g += factor * (grid.d1(u) if differentiate else u)
    return g


@pytest.mark.parametrize("n", (16, 64))
def test_square_term_sums_equal_the_zero_filled_sums_bitwise(n, monkeypatch):
    # combination sums from its first part and multiplies by no unit
    # factor, which changes only the sign of a zero in g; the energy, the
    # mechanical energy and the energy gradient must be bitwise those of
    # the zero-filled sum, on single states and on stacks, through -0.0,
    # infinities and NaNs
    rng = np.random.default_rng(n)
    grid = Grid(n, 1.0)
    functionals = (energy, mechanical_energy, lambda model, z: grad_energy(model, z).flat)
    with np.errstate(all="ignore"):
        for mid in ALL_IDS:
            model = bg.build_model(mid, ModelParams(), grid)
            rows = _special_states(model, rng)
            states = [State(model.layout, row) for row in rows] + [State._stack(model.layout, rows)]
            got = [f(model, z) for z in states for f in functionals]
            with monkeypatch.context() as patch:
                patch.setattr(SquareTerm, "combination", _zero_filled_combination)
                want = [f(model, z) for z in states for f in functionals]
            for a, b in zip(got, want):
                assert _same_bits(a, b), mid
