import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.sparse

import beamgeneric as bg
import beamgeneric.engine as engine
from beamgeneric import (
    Block,
    DivergenceError,
    DomainError,
    Grid,
    IntegratorConfig,
    ModelParams,
    PositivityError,
    State,
    compile_rhs,
    decay_rate,
    direct_rhs,
    generic_rhs,
    integrate,
    jacobi_check,
    step_rk4,
    transform_check,
    uniform_scaling,
    verify_brackets,
)
from beamgeneric.engine import DiagnosticsRecord, _diagnostics, _rk4_stability_limit
from conftest import rel_inf


# --------------------------------------------------------------------------
# right-hand sides


def test_generic_equals_direct_on_random_states(models32):
    rng = np.random.default_rng(20)
    for model in models32.values():
        for _ in range(20):
            z = bg.random_state(model, rng)
            a = generic_rhs(model, z).flat
            b = direct_rhs(model, z).flat
            assert rel_inf(a, b) <= 1e-12, model.id


def test_rhs_zero_at_equilibrium(models32):
    for model in models32.values():
        out = generic_rhs(model, model.reference_state)
        np.testing.assert_array_equal(out.flat, np.zeros(model.layout.flat_dim))


def test_direct_rhs_heat_i_sine_mode(grid32):
    model = bg.build_model("TimoshenkoHeatI", ModelParams(kappa=0.7), grid32)
    z = State.zeros(model.layout)
    theta = np.sin(2.0 * math.pi * grid32.nodes / grid32.length)
    z.field("theta")[:] = theta
    out = direct_rhs(model, z)
    np.testing.assert_allclose(
        out.field("theta"), 0.7 * grid32.d1(grid32.d1(theta)), rtol=0, atol=1e-12
    )
    dth = grid32.d1(theta)
    assert out.reservoir == pytest.approx(0.7 * grid32.inner(dth, dth))
    # q stays quiet, psi feels nothing yet
    np.testing.assert_allclose(out.field("q"), -grid32.d1(theta), atol=1e-12)
    np.testing.assert_array_equal(out.field("phi"), np.zeros(grid32.n))


def test_direct_rhs_bresse_frictional_uniform_w(grid32):
    model = bg.build_model("BresseFrictional", ModelParams(gamma1=0.0, gamma2=0.0, gamma3=2.0), grid32)
    z = State.zeros(model.layout)
    z.field("w")[:] = 1.0
    out = direct_rhs(model, z)
    np.testing.assert_allclose(out.field("w"), np.full(grid32.n, -2.0))
    assert out.reservoir == pytest.approx(2.0 * grid32.length)
    np.testing.assert_allclose(out.field("chi"), np.ones(grid32.n))


def test_compiled_rhs_matches_object_assembly(models32):
    rng = np.random.default_rng(21)
    for model in models32.values():
        rhs = compile_rhs(model)
        for _ in range(5):
            z = bg.random_state(model, rng)
            assert rel_inf(rhs(z.flat.copy()), generic_rhs(model, z).flat) <= 1e-12


def _dense_probe(model):
    """The full dim x dim matrix of a linear model's right-hand side, probed
    one unit vector at a time, with the (quadratic) reservoir row zeroed."""
    layout = model.layout
    dim = layout.flat_dim
    columns = np.zeros((dim, dim))
    basis = np.zeros(dim)
    for j in range(dim):
        basis[j] = 1.0
        columns[:, j] = generic_rhs(model, State(layout, basis.copy())).flat
        basis[j] = 0.0
    if layout.has_reservoir:
        columns[layout.reservoir_index, :] = 0.0
    return columns


def test_compiled_reservoir_rate_matches_direct_rhs(models32):
    rng = np.random.default_rng(24)
    for model in models32.values():
        if not (model.layout.has_reservoir and model.damped):
            continue
        rhs = compile_rhs(model)
        for _ in range(5):
            z = bg.random_state(model, rng)
            got = rhs(z.flat.copy())[model.layout.reservoir_index]
            want = direct_rhs(model, z).reservoir
            assert abs(got - want) <= 1e-12 * max(1.0, abs(got), abs(want)), model.id


def test_compiled_diagnostics_match_object_level(models32):
    rng = np.random.default_rng(25)
    for model in models32.values():
        for _ in range(5):
            z = bg.random_state(model, rng)
            record = _diagnostics(model, 0.0, z.flat.copy())
            want = {
                "energy": bg.energy(model, z),
                "entropy": bg.entropy(model, z),
                "mech_energy": bg.mechanical_energy(model, z),
                "res_l_ds": np.max(np.abs(bg.apply_L(model, z, bg.grad_entropy(model, z)).flat)),
                "res_m_de": np.max(np.abs(bg.apply_M(model, z, bg.grad_energy(model, z)).flat)),
            }
            for name, value in want.items():
                got = getattr(record, name)
                assert abs(got - value) <= 1e-12 * max(1.0, abs(got), abs(value)), (model.id, name)


def test_compiled_matrix_equals_dense_probe(grid32):
    rng = np.random.default_rng(23)
    for mid in bg.ALL_MODEL_IDS:
        if mid is bg.ModelId.TIMOSHENKO_NEW:
            continue
        model = bg.build_model(mid, ModelParams(), grid32)
        nf = grid32.n * model.layout.n_fields
        matrix = scipy.sparse.csr_matrix(_dense_probe(model))
        y = rng.standard_normal(model.layout.flat_dim)
        np.testing.assert_array_equal(compile_rhs(model)(y)[:nf], (matrix @ y)[:nf])


def test_compile_rhs_rejects_non_translation_invariant_model(grid32):
    base = bg.build_model("TimoshenkoNew", ModelParams(), grid32)
    coeff = 1.0 + 0.5 * np.sin(2.0 * math.pi * grid32.nodes / grid32.length)
    (row,) = base.m_rows
    varying = dataclasses.replace(
        base, m_rows=(dataclasses.replace(row, weight=lambda z: coeff * row.weight_values(z)),)
    )
    with pytest.raises(ValueError, match="translation-invariant"):
        compile_rhs(varying)
    # the step bound comes from the same checked derivation
    with pytest.raises(ValueError, match="translation-invariant"):
        varying.dt_bound


def test_compile_rhs_rejects_state_dependent_weight_with_reservoir(grid32):
    base = bg.build_model("TimoshenkoFrictional", ModelParams(), grid32)
    rows = tuple(dataclasses.replace(row, weight=lambda z: np.ones(grid32.n)) for row in base.m_rows)
    with pytest.raises(ValueError, match="TimoshenkoFrictional.*reservoir"):
        compile_rhs(dataclasses.replace(base, m_rows=rows))


def test_alpha_scaling_leaves_rhs_unchanged(grid32):
    rng = np.random.default_rng(22)
    for name in ("TimoshenkoFrictional", "TimoshenkoHeatI", "BresseHeatII"):
        m1 = bg.build_model(name, ModelParams(alpha=1.0), grid32)
        m2 = bg.build_model(name, ModelParams(alpha=2.5), grid32)
        for _ in range(5):
            z1 = bg.random_state(m1, rng)
            z2 = State(m2.layout, z1.flat.copy())
            assert rel_inf(generic_rhs(m1, z1).flat, generic_rhs(m2, z2).flat) <= 1e-12


# --------------------------------------------------------------------------
# stable time step


def _field_jacobian(model):
    """Dense Jacobian of the field block of the right-hand side at the
    reference state: unit responses for the linear models, central secants
    with h = 0.5 for the nonlinear one.  The right-hand side is at most
    quadratic, so both are exact."""
    layout = model.layout
    nf = layout.grid.n * layout.n_fields
    jac = np.zeros((nf, nf))
    if model.id is not bg.ModelId.TIMOSHENKO_NEW:
        rhs = compile_rhs(model)
        basis = np.zeros(layout.flat_dim)
        for j in range(nf):
            basis[j] = 1.0
            jac[:, j] = rhs(basis)[:nf]
            basis[j] = 0.0
        return jac
    z0 = model.reference_state.flat
    h = 0.5
    for j in range(nf):
        zp = z0.copy()
        zp[j] += h
        zm = z0.copy()
        zm[j] -= h
        fp = generic_rhs(model, State(layout, zp)).flat[:nf]
        fm = generic_rhs(model, State(layout, zm)).flat[:nf]
        jac[:, j] = (fp - fm) / (2.0 * h)
    return jac


def test_symbol_dt_matches_dense_spectrum(grid32, grid64):
    for grid in (grid32, grid64):
        for mid in bg.ALL_MODEL_IDS:
            model = bg.build_model(mid, ModelParams(), grid)
            eigs = np.linalg.eigvals(_field_jacobian(model))
            eigs = np.minimum(eigs.real, 0.0) + 1j * eigs.imag
            dense = 0.9 * _rk4_stability_limit(eigs)
            assert abs(model.dt_bound - dense) <= 1e-12 * dense, (grid.n, mid)


def test_each_model_is_linearized_once(grid32, monkeypatch):
    # one probe of the node-0 stencil (f + 1 calls) and the compile-time
    # check (1 call), whichever of compile_rhs and dt_bound comes first; the
    # other reads the cached derivation
    calls = []
    original = engine.generic_rhs

    def counting(model, z):
        calls.append(model.id)
        return original(model, z)

    monkeypatch.setattr(engine, "generic_rhs", counting)
    for mid in bg.ALL_MODEL_IDS:
        model = bg.build_model(mid, ModelParams(), grid32)
        compile_rhs(model)
        assert len(calls) <= model.layout.n_fields + 2, mid
        calls.clear()
        model.dt_bound
        assert calls == [], mid

        model = bg.build_model(mid, ModelParams(), grid32)
        model.dt_bound
        assert len(calls) <= model.layout.n_fields + 2, mid
        calls.clear()
        compile_rhs(model)
        assert calls == [], mid


def test_stable_dt_requires_uniform_reference_state(grid32):
    base = bg.build_model("TimoshenkoNew", ModelParams(), grid32)
    ref = base.reference_state.copy()
    ref.field("theta")[0] = 2.0
    with pytest.raises(ValueError, match="uniform"):
        dataclasses.replace(base, reference_state=ref).dt_bound


# --------------------------------------------------------------------------
# integration


def test_step_rk4_positive_dt(models32):
    model = models32[bg.ModelId.TIMOSHENKO_UNDAMPED]
    with pytest.raises(ValueError):
        step_rk4(model, model.reference_state, 0.0)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=1e-2, t_end=1e-3)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=1e-3, t_end=1.0, record_every=0)
    # non-finite inputs, and a finite pair whose step count overflows
    for dt, t_end in ((math.nan, 1.0), (math.inf, 1.0), (1e-3, math.nan),
                      (1e-3, math.inf), (1e-300, 1e300)):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=dt, t_end=t_end)


def test_record_schedule(models32):
    model = models32[bg.ModelId.TIMOSHENKO_UNDAMPED]
    z0 = bg.default_initial_state(model.id, model.grid)
    records = integrate(model, z0, IntegratorConfig(dt=1e-2, t_end=0.1, record_every=3))
    assert [round(r.t, 10) for r in records] == [0.0, 0.03, 0.06, 0.09, 0.1]


def test_undamped_energy_conserved_short_run(models32):
    model = models32[bg.ModelId.TIMOSHENKO_UNDAMPED]
    z0 = bg.default_initial_state(model.id, model.grid)
    records = integrate(model, z0, IntegratorConfig(dt=1e-3, t_end=2.0, record_every=100))
    e0 = records[0].energy
    drift = max(abs(r.energy - e0) for r in records) / abs(e0)
    assert drift <= 1e-9
    assert all(r.res_l_ds <= 1e-12 and r.res_m_de <= 1e-12 for r in records)
    assert math.isnan(records[0].theta_min)


def test_frictional_entropy_monotone(models32):
    model = models32[bg.ModelId.TIMOSHENKO_FRICTIONAL]
    z0 = bg.default_initial_state(model.id, model.grid)
    records = integrate(model, z0, IntegratorConfig(dt=1e-3, t_end=2.0, record_every=20))
    entropy = [r.entropy for r in records]
    assert all(b >= a - 1e-12 for a, b in zip(entropy, entropy[1:]))
    assert entropy[-1] > entropy[0]


def test_divergence_reported_with_step(models32):
    model = models32[bg.ModelId.TIMOSHENKO_FRICTIONAL]
    z0 = State.zeros(model.layout)
    z0.field("p")[:] = 1e200
    with pytest.raises(DivergenceError) as info:
        integrate(model, z0, IntegratorConfig(dt=1e-3, t_end=1.0))
    assert info.value.step == 1
    assert "step 1" in str(info.value)


def test_initial_positivity_guard(grid32):
    model = bg.build_model("TimoshenkoNew", ModelParams(), grid32)
    z0 = model.reference_state.copy()
    z0.field("theta")[0] = -1.0
    with pytest.raises(PositivityError):
        integrate(model, z0, IntegratorConfig(dt=1e-4, t_end=0.1))


def _sinking_model(grid):
    """TimoshenkoNew with a preset compiled right-hand side that drives theta
    down at unit rate."""
    base = bg.build_model("TimoshenkoNew", ModelParams(), grid)
    dim = base.layout.flat_dim
    sl = base.layout.field_slice("theta")

    def sinking(flat):
        out = np.zeros(dim)
        out[sl] = -1.0
        return out

    model = dataclasses.replace(base)
    model._sparse = dataclasses.replace(engine._sparse_form(base), rhs=sinking)
    return model


def test_positivity_abort_mid_run(grid32):
    # drive theta down at unit rate through an injected right-hand side; the
    # integrator's per-step guard must abort near t = 1
    model = _sinking_model(grid32)
    z0 = model.reference_state.copy()
    with pytest.raises(PositivityError) as info:
        integrate(model, z0, IntegratorConfig(dt=1e-3, t_end=2.0, record_every=100))
    assert "step" in str(info.value)


def test_failure_messages_name_time_and_last_energy(models32, grid32):
    fric = models32[bg.ModelId.TIMOSHENKO_FRICTIONAL]
    z0 = State.zeros(fric.layout)
    z0.field("p")[:] = 1e200
    with pytest.raises(DivergenceError) as info:
        integrate(fric, z0, IntegratorConfig(dt=1e-3, t_end=1.0))
    assert "step 1 (t = 0.001; last recorded energy inf at t = 0)" in str(info.value)

    sinking = _sinking_model(grid32)
    with pytest.raises(PositivityError) as info:
        integrate(sinking, sinking.reference_state.copy(),
                  IntegratorConfig(dt=1e-3, t_end=2.0, record_every=100))
    message = str(info.value)
    step = int(re.search(r"at step (\d+)", message).group(1))
    assert f"t = {step * 1e-3:g};" in message
    # theta = 1 - t everywhere on a unit domain, so the energy is 1 - t
    energy, t = map(float, re.search(r"last recorded energy (\S+) at t = (\S+)\)", message).groups())
    assert t == pytest.approx(0.9)
    assert energy == pytest.approx(1.0 - t, abs=1e-5)


def test_integrate_layout_mismatch(models32):
    model = models32[bg.ModelId.TIMOSHENKO_UNDAMPED]
    other = bg.build_model("TimoshenkoUndamped", ModelParams(), Grid(16, 1.0))
    with pytest.raises(ValueError):
        integrate(model, State.zeros(other.layout), IntegratorConfig(dt=1e-3, t_end=0.1))


# --------------------------------------------------------------------------
# verification


def test_verify_brackets_deterministic(models32):
    model = models32[bg.ModelId.BRESSE_HEAT_I]
    r1 = verify_brackets(model, trials=7, seed=42)
    r2 = verify_brackets(model, trials=7, seed=42)
    assert r1 == r2
    assert r1.all_passed


def test_verify_brackets_trials_validation(models32):
    with pytest.raises(ValueError):
        verify_brackets(models32[bg.ModelId.TIMOSHENKO_UNDAMPED], trials=0)


def test_corrupted_L_fails_antisymmetry(models32):
    base = models32[bg.ModelId.TIMOSHENKO_FRICTIONAL]
    flipped = (("phi", "p", Block("identity", 1.0)),) + tuple(base.l_blocks)[1:]
    # flip the sign of the (p, phi) block so it no longer balances (phi, p)
    flipped = tuple(
        (r, c, Block("identity", 1.0)) if (r, c) == ("p", "phi") else (r, c, blk)
        for r, c, blk in flipped
    )
    bad = dataclasses.replace(base, l_blocks=flipped)
    report = verify_brackets(bad, trials=5, seed=0)
    anti = {c.name: c for c in report.checks}["antisymmetry"]
    assert anti.max_residual > 1e-6
    assert not report.all_passed


# --------------------------------------------------------------------------
# Jacobi identity


def test_jacobi_constant_L(models32):
    rng = np.random.default_rng(30)
    for mid, model in models32.items():
        if mid is bg.ModelId.TIMOSHENKO_NEW:
            continue
        z = bg.random_state(model, rng)
        fs = [bg.random_test_functional(model.layout, rng) for _ in range(3)]
        residual, scale = jacobi_check(model, z, *fs, h=1e-3)
        assert residual <= 1e-10 * scale, mid


def test_jacobi_nonlinear_model(grid32):
    model = bg.build_model("TimoshenkoNew", ModelParams(), grid32)
    rng = np.random.default_rng(31)
    z = bg.random_state(model, rng)
    fs = [bg.random_test_functional(model.layout, rng) for _ in range(3)]
    residual, scale = jacobi_check(model, z, *fs, h=1e-5)
    assert residual <= 1e-4 * scale


def test_jacobi_repeated_functional_collapses(models32):
    model = models32[bg.ModelId.TIMOSHENKO_HEAT_I]
    rng = np.random.default_rng(32)
    z = bg.random_state(model, rng)
    f1 = bg.random_test_functional(model.layout, rng)
    f3 = bg.random_test_functional(model.layout, rng)
    residual, scale = jacobi_check(model, z, f1, f1, f3, h=1e-3)
    assert residual <= 1e-10 * scale


def test_jacobi_step_validation(models32):
    model = models32[bg.ModelId.TIMOSHENKO_HEAT_I]
    rng = np.random.default_rng(33)
    z = bg.random_state(model, rng)
    fs = [bg.random_test_functional(model.layout, rng) for _ in range(3)]
    for h in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite-difference step"):
            jacobi_check(model, z, *fs, h=h)


# --------------------------------------------------------------------------
# transform invariance


def test_transform_identity(models32):
    model = models32[bg.ModelId.TIMOSHENKO_FRICTIONAL]
    z0 = bg.default_initial_state(model.id, model.grid)
    cfg = IntegratorConfig(dt=1e-3, t_end=0.2, record_every=20)
    assert transform_check(model, uniform_scaling(model.layout, 1.0), z0, cfg) <= 1e-12


def test_transform_uniform_scaling(models32):
    model = models32[bg.ModelId.TIMOSHENKO_FRICTIONAL]
    z0 = bg.default_initial_state(model.id, model.grid)
    cfg = IntegratorConfig(dt=1e-3, t_end=1.0, record_every=50)
    assert transform_check(model, uniform_scaling(model.layout, 2.0), z0, cfg) <= 1e-8


def test_transform_per_field_scaling(models32):
    model = models32[bg.ModelId.TIMOSHENKO_HEAT_I]
    layout = model.layout
    t_diag = np.ones(layout.flat_dim)
    for i, name in enumerate(layout.field_order):
        t_diag[layout.field_slice(name)] = 0.5 + 0.25 * i
    t_diag[layout.reservoir_index] = 3.0
    z0 = bg.default_initial_state(model.id, model.grid)
    cfg = IntegratorConfig(dt=5e-4, t_end=0.2, record_every=40)
    assert transform_check(model, t_diag, z0, cfg) <= 1e-8


def test_transform_singular_rejected(models32):
    model = models32[bg.ModelId.TIMOSHENKO_FRICTIONAL]
    t_diag = uniform_scaling(model.layout, 1.0)
    t_diag[0] = 0.0
    z0 = bg.default_initial_state(model.id, model.grid)
    with pytest.raises(ValueError):
        transform_check(model, t_diag, z0, IntegratorConfig(dt=1e-3, t_end=0.1))


# --------------------------------------------------------------------------
# decay fits


def _fake_records(values):
    return [
        DiagnosticsRecord(t=0.1 * i, energy=v, entropy=0.0, mech_energy=v,
                          res_l_ds=0.0, res_m_de=0.0, theta_min=math.nan)
        for i, v in enumerate(values)
    ]


def test_decay_rate_validation():
    with pytest.raises(ValueError):
        decay_rate(_fake_records([1.0] * 9))
    with pytest.raises(DomainError):
        decay_rate(_fake_records([1.0] * 10 + [0.0] * 10))


def test_decay_rates_on_trajectories(grid32):
    fric = bg.build_model("TimoshenkoFrictional", ModelParams(), grid32)
    z0 = bg.default_initial_state(fric.id, grid32)
    records = integrate(fric, z0, IntegratorConfig(dt=1e-3, t_end=6.0, record_every=20))
    assert decay_rate(records) < -1e-3

    und = bg.build_model("TimoshenkoUndamped", ModelParams(), grid32)
    z0 = bg.default_initial_state(und.id, grid32)
    records = integrate(und, z0, IntegratorConfig(dt=1e-3, t_end=6.0, record_every=20))
    assert abs(decay_rate(records)) <= 1e-6
