import numpy as np
import pytest

import beamgeneric as bg
from beamgeneric import Grid, IntegratorConfig, ModelParams, State, energy
from conftest import ALL_IDS, needs_scipy


def test_all_models_build_and_verify(models32):
    assert set(models32) == set(ALL_IDS)
    for model in models32.values():
        report = bg.verify_brackets(model, trials=5, seed=17)
        assert report.all_passed, report


#: README's catalog table: each model's field order, and whether it has the
#: reservoir slot e
README_LAYOUTS = {
    "TimoshenkoUndamped": (("phi", "psi", "p", "q"), True),
    "TimoshenkoFrictional": (("phi", "psi", "p", "q"), True),
    "TimoshenkoHeatI": (("phi", "psi", "p", "q", "theta"), True),
    "TimoshenkoHeatII": (("phi", "psi", "p", "q", "theta", "s"), True),
    "TimoshenkoHeatIII": (("phi", "psi", "p", "q", "theta", "w"), True),
    "TimoshenkoNew": (("phi", "psi", "p", "q", "theta"), False),
    "BresseUndamped": (("phi", "psi", "chi", "p", "q", "w"), True),
    "BresseFrictional": (("phi", "psi", "chi", "p", "q", "w"), True),
    "BresseHeatI": (("phi", "psi", "chi", "p", "q", "w", "theta"), True),
    "BresseHeatII": (("phi", "psi", "chi", "p", "q", "w", "theta", "eta"), True),
}


def test_layouts(models32):
    assert set(README_LAYOUTS) == {mid.value for mid in ALL_IDS}
    for mid, model in models32.items():
        fields, has_reservoir = README_LAYOUTS[mid.value]
        assert model.layout.field_order == fields, mid
        assert model.layout.has_reservoir is has_reservoir, mid


def test_damped_flags(models32):
    assert not models32[bg.ModelId.TIMOSHENKO_UNDAMPED].damped
    assert not models32[bg.ModelId.BRESSE_UNDAMPED].damped
    for mid in ALL_IDS:
        if mid not in (bg.ModelId.TIMOSHENKO_UNDAMPED, bg.ModelId.BRESSE_UNDAMPED):
            assert models32[mid].damped


def test_build_by_string_and_unknown():
    model = bg.build_model("TimoshenkoHeatI")
    assert model.id is bg.ModelId.TIMOSHENKO_HEAT_I
    with pytest.raises(ValueError):
        bg.build_model("TimoshenkoHeatIV")


def test_parameter_validation():
    grid = Grid(8, 1.0)
    with pytest.raises(ValueError, match="k must be > 0"):
        bg.build_model("TimoshenkoFrictional", ModelParams(k=0.0), grid)
    with pytest.raises(ValueError, match="alpha"):
        bg.build_model("TimoshenkoFrictional", ModelParams(alpha=0.0), grid)
    with pytest.raises(ValueError, match="alpha"):
        bg.build_model("TimoshenkoFrictional", ModelParams(alpha=-1.0), grid)
    with pytest.raises(ValueError, match="kappa"):
        bg.build_model("TimoshenkoHeatI", ModelParams(kappa=-0.5), grid)
    with pytest.raises(ValueError, match="l must be > 0"):
        bg.build_model("BresseHeatI", ModelParams(l=0.0), grid)
    # several violations are reported together
    with pytest.raises(ValueError, match="k must be > 0.*b must be > 0"):
        bg.build_model("TimoshenkoUndamped", ModelParams(k=-1.0, b=0.0), grid)
    # Timoshenko models do not restrict the Bresse-only constants
    bg.build_model("TimoshenkoUndamped", ModelParams(k0=0.0, l=0.0), grid)
    # nor any other constant the model does not read
    bg.build_model("TimoshenkoFrictional", ModelParams(kappa=-1.0), grid)
    bg.build_model("TimoshenkoNew", ModelParams(alpha=-1.0), grid)
    # non-finite constants are rejected by name (NaN passes the sign checks)
    with pytest.raises(ValueError, match="kappa must be finite, got nan"):
        bg.build_model("TimoshenkoHeatI", ModelParams(kappa=float("nan")), grid)
    with pytest.raises(ValueError, match="delta1 must be finite, got inf"):
        bg.build_model("TimoshenkoFrictional", ModelParams(delta1=float("inf")), grid)
    with pytest.raises(ValueError, match="k must be finite, got -inf"):
        bg.build_model("BresseHeatII", ModelParams(k=-float("inf")), grid)


def test_default_initial_state(grid32):
    z = bg.default_initial_state("BresseFrictional", grid32, mode=1, amplitude=0.0)
    np.testing.assert_array_equal(z.flat, np.zeros(z.layout.flat_dim))

    z = bg.default_initial_state("TimoshenkoNew", grid32, mode=2, amplitude=0.0)
    assert float(np.min(z.field("theta"))) == 1.0

    with pytest.raises(ValueError):
        bg.default_initial_state("TimoshenkoNew", grid32, mode=0)


def test_default_initial_state_rejects_bool_mode(grid32):
    # isinstance(True, int) holds, so True would excite mode 1
    with pytest.raises(ValueError, match="mode must be a positive integer, got True"):
        bg.default_initial_state("TimoshenkoFrictional", grid32, mode=True)


def test_default_initial_state_rejects_aliased_mode(grid32):
    # mode n/2 is the Nyquist mode, still resolved; mode n/2 + 1 would alias
    # to mode n/2 - 1 with phi negated
    half = grid32.n // 2
    z = bg.default_initial_state("TimoshenkoFrictional", grid32, mode=half)
    assert np.all(np.isfinite(z.flat))
    with pytest.raises(ValueError, match=r"mode.*n = 32"):
        bg.default_initial_state("TimoshenkoFrictional", grid32, mode=half + 1)


def test_default_initial_state_energy(grid32):
    model = bg.build_model("TimoshenkoUndamped", ModelParams(), grid32)
    z = bg.default_initial_state("TimoshenkoUndamped", grid32, mode=1, amplitude=0.1)
    # independent quadrature of the analytic density from the raw arrays
    g = grid32.d1(z.field("phi")) + z.field("psi")
    dpsi = grid32.d1(z.field("psi"))
    expected = 0.5 * grid32.inner(g, g) + 0.5 * grid32.inner(dpsi, dpsi)
    assert expected > 0.0
    assert energy(model, z) == pytest.approx(expected, rel=1e-13)


def test_velocities_and_extras_start_at_zero(grid32):
    for mid in ALL_IDS:
        z = bg.default_initial_state(mid, grid32)
        for name in ("p", "q"):
            np.testing.assert_array_equal(z.field(name), np.zeros(grid32.n))
        for name in ("s", "eta"):
            if name in z.layout:
                np.testing.assert_array_equal(z.field(name), np.zeros(grid32.n))
        if z.layout.has_reservoir:
            assert z.reservoir == 0.0


@needs_scipy
def test_cattaneo_elimination_identity(grid32):
    """Eliminating the heat flux from the hyperbolic pair reproduces the
    damped second-order temperature equation along a trajectory sample."""
    model = bg.build_model("TimoshenkoHeatII", ModelParams(), grid32)
    z = bg.default_initial_state("TimoshenkoHeatII", grid32)
    dt = min(1e-3, model.dt_bound)
    for _ in range(200):
        z = bg.step_rk4(model, z, dt)
    beta, gamma = model.params.beta, model.params.gamma
    zdot = bg.generic_rhs(model, z)
    # theta_tt through the first-order system
    lhs = -grid32.d1(zdot.field("s")) - gamma * grid32.d1(zdot.field("q"))
    # the composed second-order right-hand side
    rhs = (
        grid32.d1(grid32.d1(z.field("theta")))
        - beta * zdot.field("theta")
        - beta * gamma * grid32.d1(z.field("q"))
        - gamma * grid32.d1(zdot.field("q"))
    )
    scale = max(1.0, float(np.max(np.abs(lhs))))
    assert float(np.max(np.abs(lhs - rhs))) / scale <= 1e-6


def test_timoshenko_new_weight_equals_roll_formula():
    # the slice arithmetic performs the roll formula's operations in the same
    # order, delta * theta[i+1] * theta[i-1], so the results are bitwise equal
    rng = np.random.default_rng(8)
    for n in (4, 5, 64, 512):
        model = bg.build_model("TimoshenkoNew", ModelParams(delta=0.7), Grid(n, 1.3))
        z = bg.random_state(model, rng)
        theta = z.field("theta")
        (row,) = model.m_rows
        assert np.array_equal(row.weight_values(z), 0.7 * np.roll(theta, -1) * np.roll(theta, 1)), n


def test_dt_bound_scales(models32, grid32):
    # diffusive models are limited by the kappa/dx^2 terms, wave models by the
    # elastic frequencies; the reported bounds must keep RK4 stable and must
    # not be absurdly conservative
    dx2 = grid32.dx**2
    for mid in (bg.ModelId.TIMOSHENKO_HEAT_I, bg.ModelId.BRESSE_HEAT_I):
        bound = models32[mid].dt_bound
        assert 0.4 * dx2 <= bound <= 2.9 * dx2
    for mid in (bg.ModelId.TIMOSHENKO_UNDAMPED, bg.ModelId.BRESSE_UNDAMPED):
        assert models32[mid].dt_bound > 5.0 * dx2


def test_heat_conductivity_tightens_dt_bound(grid32):
    slow = bg.build_model("TimoshenkoHeatI", ModelParams(kappa=1.0), grid32)
    fast = bg.build_model("TimoshenkoHeatI", ModelParams(kappa=4.0), grid32)
    assert fast.dt_bound < slow.dt_bound


def test_integrate_rejects_unstable_dt(models32):
    model = models32[bg.ModelId.TIMOSHENKO_HEAT_I]
    z0 = State.zeros(model.layout)
    cfg = IntegratorConfig(dt=2.0 * model.dt_bound, t_end=1.0)
    with pytest.raises(ValueError, match="stable bound"):
        bg.integrate(model, z0, cfg)
