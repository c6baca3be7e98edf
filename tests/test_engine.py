import dataclasses
import gc
import itertools
import math
import re
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest

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
from beamgeneric.engine import (
    DECAY_WINDOWS,
    DiagnosticsRecord,
    _diagnostics,
    _rk4_stability_limit,
    windowed_decay_rates,
)
from beamgeneric.functionals import LinearTerm, SquareTerm
from beamgeneric.state import stack_rows
from conftest import needs_scipy, rel_inf


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


@needs_scipy
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


@needs_scipy
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


LINEAR_IDS = tuple(m for m in bg.ALL_MODEL_IDS if m is not bg.ModelId.TIMOSHENKO_NEW)

#: one seeded draw of non-unit constants for every ModelParams field
_PARAM_FIELDS = dataclasses.fields(ModelParams)
DRAWN_PARAMS = ModelParams(**{
    f.name: float(v) for f, v in zip(_PARAM_FIELDS,
                                     np.random.default_rng(12).uniform(0.4, 2.5, len(_PARAM_FIELDS)))
})


def _assert_record_matches_object_level(model, rng, trials):
    # one record serves all ten models; its |M dE| is the 0 the derivation
    # proved, the object-level value is roundoff
    for _ in range(trials):
        z = bg.random_state(model, rng)
        record, = _diagnostics(model, engine._sparse_form(model), (0.0,), z.flat.copy()[None])
        theta = z.field("theta") if "theta" in model.layout else [math.nan]
        np.testing.assert_equal(record.theta_min, np.min(theta))
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


def test_compiled_diagnostics_match_object_level(models32):
    rng = np.random.default_rng(25)
    for model in models32.values():
        _assert_record_matches_object_level(model, rng, trials=5)


@pytest.mark.parametrize("params", (ModelParams(), DRAWN_PARAMS), ids=("unit", "drawn"))
@pytest.mark.parametrize("n", (16, 64, 512))
def test_product_record_matches_grid_record(n, params):
    # the record, taken on a stack of states, against the grid functions on
    # one state, for all ten models at other sizes and non-unit constants
    rng = np.random.default_rng(n)
    for mid in bg.ALL_MODEL_IDS:
        _assert_record_matches_object_level(bg.build_model(mid, params, Grid(n, 1.0)), rng, trials=3)


@needs_scipy
def test_compiled_matrix_equals_dense_probe(grid32):
    import scipy.sparse

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


@needs_scipy
def test_corrupted_csr_is_refused_on_its_first_call(grid32, monkeypatch):
    # compile_rhs returns before any CSR matrix exists; the first call builds
    # it and checks it against the object-level right-hand side, so a matrix
    # with an entry A does not have is refused there, and on every later call
    original = engine._circulant

    def injected(n, shape, columns):
        columns = columns.copy()
        columns[0, 5] += 1.0
        return original(n, shape, columns)

    monkeypatch.setattr(engine, "_circulant", injected)
    for mid in (bg.ModelId.TIMOSHENKO_HEAT_I, bg.ModelId.TIMOSHENKO_NEW):
        model = bg.build_model(mid, ModelParams(), grid32)
        rhs = compile_rhs(model)
        y = model.reference_state.flat.copy()
        for _ in range(2):
            with pytest.raises(ValueError, match=f"{mid}: the compiled sparse right-hand side differs"):
                rhs(y)
    model = bg.build_model(bg.ModelId.TIMOSHENKO_NEW, ModelParams(), grid32)
    with pytest.raises(ValueError, match="compiled sparse right-hand side"):
        integrate(model, model.reference_state.copy(), IntegratorConfig(dt=1e-4, t_end=1e-3))


def _derived_model_reference(mid, grid):
    """A weak reference to a model whose derivation has served the step
    bound, an integrate and a first compiled call, once the model is dropped."""
    model = bg.build_model(mid, ModelParams(), grid)
    z0 = bg.default_initial_state(mid, grid)
    integrate(model, z0, IntegratorConfig(dt=0.5 * model.dt_bound, t_end=model.dt_bound * 2.5,
                                          record_every=2))
    compile_rhs(model)(z0.flat.copy())
    return weakref.ref(model)


@needs_scipy
@pytest.mark.parametrize("mid", bg.ALL_MODEL_IDS, ids=str)
def test_a_derived_model_is_freed_without_the_cycle_collector(grid32, mid):
    # the model caches its derivation, so a closure of the derivation that
    # reached the model would make a reference cycle, which only the cycle
    # collector frees
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert _derived_model_reference(mid, grid32)() is None
    finally:
        if enabled:
            gc.enable()


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


@needs_scipy
def test_symbol_dt_matches_dense_spectrum(grid32, grid64):
    for grid in (grid32, grid64):
        for mid in bg.ALL_MODEL_IDS:
            model = bg.build_model(mid, ModelParams(), grid)
            eigs = np.linalg.eigvals(_field_jacobian(model))
            dense = 0.9 * _rk4_stability_limit(eigs)
            assert abs(model.dt_bound - dense) <= 1e-12 * dense, (grid.n, mid)


@pytest.mark.parametrize("stiffness", (1e-16, 1e-22, 1e40, 1e100, 1e300))
def test_step_bound_of_a_slowly_moving_model_is_finite_and_tight(stiffness):
    # at k = b = 1e-16 the spectral radius is 6.45e-7, so RK4's limit is
    # about 4.4e6, and at 1e-22 every eigenvalue is below 1e-9: the bound
    # must be finite (no absolute cut of small eigenvalues).  At 1e100 and
    # 1e300 the limit is about 4.4e-52 and 4.4e-152, where a search that
    # starts far from it and stops after a fixed count of halvings ends
    # below half of it.  At every scale the bound is stable for every
    # eigenvalue and within 1% of the limit
    model = bg.build_model(bg.ModelId.TIMOSHENKO_UNDAMPED, ModelParams(k=stiffness, b=stiffness),
                           Grid(64, 1.0))
    eigs = np.linalg.eigvals(engine._sparse_form(model).symbols).ravel()
    eigs = np.minimum(eigs.real, 0.0) + 1j * eigs.imag
    limit = model.dt_bound / 0.9
    assert math.isfinite(limit)
    assert np.all(engine._rk4_amplification(limit * eigs) <= 1.0 + 1e-9)
    assert np.any(engine._rk4_amplification(1.01 * limit * eigs) > 1.0 + 1e-9)


def test_rk4_is_unstable_at_three_in_every_direction():
    # the step bound bisects [0, 3 / radius]: at dt = 3 / radius the largest
    # eigenvalue sits at |z| = 3, which must be unstable whatever its angle
    z = 3.0 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 200001))
    assert np.all(engine._rk4_amplification(z) > 1.0 + 1e-9)


def test_step_bound_scales_exactly_with_the_constants():
    # k = b = s scales TimoshenkoUndamped's spectrum by sqrt(s), so its
    # limit scales by 1 / sqrt(s) up to roundoff, at any size of s
    def bound(s):
        return bg.build_model(bg.ModelId.TIMOSHENKO_UNDAMPED, ModelParams(k=s, b=s),
                              Grid(64, 1.0)).dt_bound

    unit = bound(1.0)
    for s in (1e-22, 1e-16, 1e-8, 1e8, 1e20, 1e24, 1e40, 1e100, 1e200, 1e300):
        assert abs(bound(s) * math.sqrt(s) / unit - 1.0) <= 1e-13, s


@pytest.mark.parametrize("eigs, limit", [
    (np.zeros(3, dtype=complex), math.inf),  # no eigenvalue moves
    (np.array([1e-310j]), math.inf),         # 3 / radius overflows
    (np.array([-1e302 + 0j]), 0.0),          # the limit is below 1e-300
], ids=("steady", "subnormal", "underflow"))
def test_step_bound_at_its_ends_without_a_warning(eigs, limit):
    # no step of the search may overflow on the way to either end
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        assert _rk4_stability_limit(eigs) == limit


@pytest.mark.parametrize("params", (ModelParams(), DRAWN_PARAMS), ids=("unit", "drawn"))
@pytest.mark.parametrize("n", (16, 64, 512))
def test_new_model_linearizes_to_type_i_heat(n, params):
    # TimoshenkoNew with delta = d linearizes at theta = 1 to TimoshenkoHeatI
    # with kappa = d under theta_New - 1 <-> -theta_HeatI: the symbols agree
    # exactly under T = diag(1, 1, 1, 1, -1), and so do the step bounds
    grid = Grid(n, 1.0)
    new = bg.build_model("TimoshenkoNew", params, grid)
    heat = bg.build_model("TimoshenkoHeatI", dataclasses.replace(params, kappa=params.delta), grid)
    t = np.array([1.0, 1.0, 1.0, 1.0, -1.0])
    flipped = engine._sparse_form(heat).symbols * np.outer(t, t)
    np.testing.assert_array_equal(flipped, engine._sparse_form(new).symbols)
    assert new.dt_bound == heat.dt_bound


def _spectral_distance(timoshenko, bresse, k):
    """The largest distance from an eigenvalue of the Timoshenko model's
    symbol at bin k to the nearest eigenvalue of the Bresse model's,
    relative to the largest Timoshenko eigenvalue."""
    near = np.linalg.eigvals(engine._sparse_form(timoshenko).symbols[k])
    far = np.linalg.eigvals(engine._sparse_form(bresse).symbols[k])
    return np.max(np.min(np.abs(near[:, None] - far[None, :]), axis=1)) / np.max(np.abs(near))


@pytest.mark.parametrize("timoshenko, bresse, constants, slope", [
    ("TimoshenkoUndamped", "BresseUndamped", {}, 0.151),
    ("TimoshenkoFrictional", "BresseFrictional", {"gamma1": 1.0, "gamma2": 1.0, "gamma3": 0.0}, 0.104),
    ("TimoshenkoHeatI", "BresseHeatI", {}, 0.0368),
], ids=("undamped", "frictional", "heat_i"))
def test_bresse_tends_to_timoshenko_as_the_curvature_vanishes(timoshenko, bresse, constants, slope):
    # at n = 64 and wavenumber 1, the Bresse spectrum holds the Timoshenko
    # one up to O(l^2) (frictional: gamma1, gamma2 = delta1, delta2 and no
    # longitudinal damping): measured slope * l^2 at l = 1e-1..1e-4, so the
    # distance falls 100x per decade of l
    grid = Grid(64, 1.0)
    near = bg.build_model(timoshenko, ModelParams(), grid)
    curvatures = (1e-1, 1e-2, 1e-3, 1e-4)
    distances = [
        _spectral_distance(near, bg.build_model(bresse, ModelParams(l=l, **constants), grid), 1)
        for l in curvatures
    ]
    for l, distance in zip(curvatures, distances):
        assert distance <= 1.25 * slope * l**2, (l, distance)
    for coarse, fine in zip(distances, distances[1:]):
        assert 90.0 <= coarse / fine <= 110.0, distances


@needs_scipy
def test_new_model_deviates_from_type_i_heat_at_first_order_in_the_amplitude():
    # from default_initial_state at amplitude eps (n = 64, T = 2, RK4 at the
    # shared step bound), TimoshenkoNew deviates from TimoshenkoHeatI under
    # theta_New - 1 <-> -theta_HeatI by about 3.1 * eps relative (3.11e-1 at
    # eps = 0.1 down to 3.64e-2 at 0.0125): the deviation halves with eps
    grid = Grid(64, 1.0)
    new = bg.build_model("TimoshenkoNew", ModelParams(), grid)
    heat = bg.build_model("TimoshenkoHeatI", ModelParams(), grid)
    assert new.dt_bound == heat.dt_bound
    steps = math.ceil(2.0 / new.dt_bound)
    nf = new.layout.flat_dim
    theta = new.layout.field_slice("theta")

    def final(model, eps):
        y = bg.default_initial_state(model.id, grid, amplitude=eps).flat
        _, jump, _ = engine._stage_path(engine._sparse_form(model), y, 2.0 / steps, None)
        z, ok = jump(y, steps)
        assert ok, model.id
        return z[:nf].copy()

    amplitudes = (0.1, 0.05, 0.025, 0.0125)
    deviations = []
    for eps in amplitudes:
        mapped, want = final(new, eps), final(heat, eps)
        mapped[theta] = 1.0 - mapped[theta]
        deviations.append(np.max(np.abs(mapped - want)) / np.max(np.abs(want)))
    for eps, deviation in zip(amplitudes, deviations):
        assert 2.85 <= deviation / eps <= 3.2, (eps, deviation)
    for coarse, fine in zip(deviations, deviations[1:]):
        assert 1.95 <= coarse / fine <= 2.12, deviations


@needs_scipy
@pytest.mark.parametrize("params", (ModelParams(), DRAWN_PARAMS), ids=("unit", "drawn"))
@pytest.mark.parametrize("n", (5, 16, 17, 64))
def test_step_bound_from_half_the_spectrum(n, params):
    # the derivation takes the eigenvalues of bins k = 0..n//2 only, the
    # others being their complex conjugates; the bound must be bitwise the
    # one over every bin of the FFT of the node-0 columns, which the
    # compiled right-hand side returns for the unit vectors e_j
    for mid in LINEAR_IDS:
        model = bg.build_model(mid, params, Grid(n, 1.0))
        f, dim = model.layout.n_fields, model.layout.flat_dim
        rhs = compile_rhs(model)
        columns = np.array([rhs(np.eye(1, dim, j * n)[0])[:n * f] for j in range(f)])
        spectrum = np.fft.fft(columns.T.reshape(f, n, f), axis=1).transpose(1, 0, 2)
        eigs = np.linalg.eigvals(spectrum).ravel()
        assert model.dt_bound == 0.9 * _rk4_stability_limit(eigs), (n, mid)


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


def test_step_rk4_rejects_a_state_of_another_layout(models32):
    # the stages hand the state to the CSR kernel, which reads dim slots of
    # whatever it is given
    model = models32[bg.ModelId.TIMOSHENKO_NEW]
    other = bg.build_model(bg.ModelId.TIMOSHENKO_NEW, ModelParams(), Grid(16, 1.0))
    with pytest.raises(ValueError, match="state layout does not match model TimoshenkoNew"):
        step_rk4(model, other.reference_state, 1e-4)


def test_direct_rhs_rejects_a_state_of_another_layout(models32):
    model = models32[bg.ModelId.TIMOSHENKO_FRICTIONAL]
    other = bg.build_model(bg.ModelId.TIMOSHENKO_FRICTIONAL, ModelParams(), Grid(16, 1.0))
    with pytest.raises(ValueError, match="state layout does not match model TimoshenkoFrictional"):
        direct_rhs(model, other.reference_state)


def test_step_rk4_positive_dt(models32):
    model = models32[bg.ModelId.TIMOSHENKO_UNDAMPED]
    with pytest.raises(ValueError):
        step_rk4(model, model.reference_state, 0.0)


def test_step_rk4_rejects_a_step_that_is_not_finite(models32):
    # an infinite step would run the stages into inf * 0 and return NaN
    model = models32[bg.ModelId.TIMOSHENKO_UNDAMPED]
    for dt in (math.inf, math.nan):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            step_rk4(model, model.reference_state, dt)


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


def test_record_every_rejects_bool():
    # isinstance(True, int) holds, so True would run as record_every = 1
    with pytest.raises(ValueError, match="record_every"):
        IntegratorConfig(dt=1e-3, t_end=1e-2, record_every=True)


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


@pytest.mark.parametrize("mid, field, value, where", [
    ("TimoshenkoHeatI", "phi", math.inf, "field phi at node 5 is inf"),
    ("TimoshenkoHeatI", "e", math.nan, "the reservoir e is nan"),
    ("TimoshenkoNew", "phi", math.nan, "field phi at node 5 is nan"),
    ("TimoshenkoNew", "theta", math.nan, "field theta at node 5 is nan"),
], ids=("HeatI-phi", "HeatI-e", "New-phi", "New-theta"))
def test_a_non_finite_initial_state_is_rejected_before_stepping(grid32, mid, field, value, where):
    # on the Fourier path and the stage path, and by transform_check: at the
    # boundary, not as a failure of step 1; a NaN temperature is not cold
    model = bg.build_model(mid, ModelParams(), grid32)
    z0 = model.reference_state.copy()
    if field == "e":
        z0.reservoir = value
    else:
        z0.field(field)[5] = value
    message = f"initial state is not finite: {where}"
    with pytest.raises(ValueError, match=message):
        integrate(model, z0, IntegratorConfig(dt=1e-4, t_end=1e-3))
    with pytest.raises(ValueError, match=message):
        transform_check(model, uniform_scaling(model.layout, 2.0), z0, IntegratorConfig(1e-4, 1e-3))


def _with_stage_rhs(base, evaluator):
    """A copy of ``base`` whose stage path steps on the evaluators that
    ``evaluator()`` returns, one per stage."""
    model = dataclasses.replace(base)
    model._sparse = dataclasses.replace(engine._sparse_form(base), evaluator=evaluator)
    return model


def _sinking_model(grid):
    """TimoshenkoNew with a preset compiled right-hand side that drives theta
    down at unit rate."""
    base = bg.build_model("TimoshenkoNew", ModelParams(), grid)
    dim = base.layout.flat_dim
    sl = base.layout.field_slice("theta")

    def sinking():
        k = np.empty(dim)

        def evaluate(flat):
            k[:] = 0.0
            k[sl] = -1.0
            return k
        return evaluate

    return _with_stage_rhs(base, sinking)


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


def _stage_reference(model, z0, cfg):
    """The records of integrate, from the textbook RK4 expression over calls
    of the public compiled right-hand side."""
    rhs = compile_rhs(model)
    dt = cfg.dt
    y = z0.flat.copy()
    sparse = engine._sparse_form(model)
    records = _diagnostics(model, sparse, (0.0,), y[None])
    for step in range(1, cfg.n_steps + 1):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * (k2 + k3) + k4)
        if step % cfg.record_every == 0 or step == cfg.n_steps:
            records += _diagnostics(model, sparse, (step * cfg.dt,), y[None])
    return records


@needs_scipy
@pytest.mark.parametrize("start", ("default", "random"))
@pytest.mark.parametrize("record_every", (1, 7))
@pytest.mark.parametrize("n", (16, 64))
def test_stage_path_equals_the_rk4_loop_bitwise(n, record_every, start):
    # the stage path writes its stages into work arrays of its own; every
    # record must equal the textbook RK4 loop's, and with a record every
    # step a held state that shared a work buffer would be overwritten
    model = bg.build_model(bg.ModelId.TIMOSHENKO_NEW, ModelParams(), Grid(n, 1.0))
    if start == "default":
        z0 = bg.default_initial_state(model.id, model.grid)
    else:
        z0 = bg.random_state(model, np.random.default_rng(n + record_every))
    dt = 0.5 * model.dt_bound
    cfg = IntegratorConfig(dt=dt, t_end=40 * dt, record_every=record_every)
    got = integrate(model, z0, cfg)
    assert len(got) == 1 + -(-cfg.n_steps // record_every)
    assert got == _stage_reference(model, z0, cfg)


@needs_scipy
@pytest.mark.parametrize("record_every", (1, 7))
def test_stage_path_states_share_no_memory_with_its_work(monkeypatch, record_every):
    # the stage path steps into per-run buffers (the stage input, the four
    # evaluators' work buffers and two alternating results): no state a jump
    # returns, and integrate holds for its records, may share memory with
    # them, each must keep its value to the end of the run, and z0 must be
    # left as it is
    model = bg.build_model(bg.ModelId.TIMOSHENKO_NEW, ModelParams(), Grid(16, 1.0))
    z0 = bg.default_initial_state(model.id, model.grid)
    start = z0.flat.copy()
    sparse = engine._sparse_form(model)
    buffers, handed = {}, []

    def keep(array):
        buffers[id(array)] = array

    def evaluator():
        evaluate = sparse.evaluator()

        def watched(y):
            k = evaluate(y)
            keep(k.base)  # the evaluator's whole work buffer
            return k
        return watched

    def stepper(evaluators, dim, dt):
        def taking_the_stage_input(evaluate):
            def watched(y):
                keep(y)
                return evaluate(y)
            return watched

        first, *rest = evaluators
        step = original_stepper([first] + [taking_the_stage_input(e) for e in rest], dim, dt)

        def watched(y, out=None):
            if out is not None:
                keep(out)
            return step(y, out)
        return watched

    def stage_path(*args):
        state, jump, to_grid = original_path(*args)

        def watched(state, m):
            new, ok = jump(state, m)
            handed.append((new, new.copy()))
            return new, ok
        return state, watched, to_grid

    original_stepper, original_path = engine._rk4_stepper, engine._stage_path
    monkeypatch.setattr(engine, "_rk4_stepper", stepper)
    monkeypatch.setattr(engine, "_stage_path", stage_path)
    dt = 0.5 * model.dt_bound
    cfg = IntegratorConfig(dt=dt, t_end=30 * dt, record_every=record_every)
    records = integrate(_with_stage_rhs(model, evaluator), z0, cfg)
    assert len(records) == 1 + -(-30 // record_every)
    # four work buffers, the stage input and the results, of which a jump
    # of one step uses one
    assert len(buffers) == 5 + min(record_every, 2) and len(handed) == -(-30 // record_every)
    for state, value in handed:
        assert not any(np.shares_memory(state, b) for b in buffers.values())
        assert state.tobytes() == value.tobytes()
    assert z0.flat.tobytes() == start.tobytes()


def _scipy_circulant(n, shape, columns):
    """scipy's own CSR matrix of the block-circulant matrix that
    ``engine._circulant`` documents: entry ``columns[j, r]`` at row
    ``r // n * n + i`` and column ``j * n + (i - r) % n`` for every node i."""
    import scipy.sparse

    rows, cols, values = [], [], []
    for j, r in zip(*np.nonzero(columns)):
        for i in range(n):
            rows.append(r // n * n + i)
            cols.append(j * n + (i - r) % n)
            values.append(columns[j, r])
    return scipy.sparse.csr_matrix((values, (rows, cols)), shape=shape)


@needs_scipy
def test_csr_kernel_product_equals_the_matrix_product_bitwise(monkeypatch):
    # the compiled right-hand side builds its CSR arrays in numpy and runs
    # scipy's CSR kernel on them itself, into a buffer that may hold
    # anything; the arrays must be scipy's canonical ones for the same
    # entries, and the product bitwise that of matrix @ y, whatever scipy
    # release is installed
    built = []

    def keep(*args):
        built.append((args, original(*args)))
        return built[-1][1]

    original = engine._circulant
    monkeypatch.setattr(engine, "_circulant", keep)
    rng = np.random.default_rng(25)
    for n, mid in itertools.product((4, 5, 16, 64), bg.ALL_MODEL_IDS):
        model = bg.build_model(mid, ModelParams(), Grid(n, 1.0))
        rhs = compile_rhs(model)
        y = bg.random_state(model, rng).flat
        public = rhs(y)
        args, ((indptr, indices, data), product) = built[-1]
        rows, dim = args[1]
        assert dim == y.size and rows >= dim
        matrix = _scipy_circulant(*args)
        assert matrix.has_canonical_format, (n, mid)
        for got, want in ((indptr, matrix.indptr), (indices, matrix.indices), (data, matrix.data)):
            assert got.dtype == want.dtype and np.array_equal(got, want), (n, mid)
        dirty = np.full(rows, np.nan)
        assert product(y, dirty) is dirty
        assert dirty.tobytes() == (matrix @ y).tobytes(), (n, mid)
        # the public call and an evaluator agree bitwise; the evaluator
        # returns the tail of its own work buffer of the CSR matrix's rows,
        # the public call a new array
        evaluate = engine._sparse_form(model).evaluator()
        staged = evaluate(y)
        assert staged.base.size == rows and np.shares_memory(staged, evaluate(y))
        assert not np.shares_memory(public, rhs(y))
        assert staged.tobytes() == public.tobytes(), (n, mid)
    assert len(built) == 4 * len(bg.ALL_MODEL_IDS)


def test_compiled_rhs_rejects_a_state_of_another_shape(grid32):
    # the kernel reads dim slots of whatever it is given, so the public call
    # checks the shape, and that the state is real
    model = bg.build_model(bg.ModelId.TIMOSHENKO_NEW, ModelParams(), grid32)
    rhs = compile_rhs(model)
    dim = model.layout.flat_dim
    for flat in (np.zeros(dim - 1), np.zeros((dim, 1)), np.zeros((2, dim)), np.zeros(dim, dtype=complex)):
        with pytest.raises(ValueError, match=rf"TimoshenkoNew: expected a flat state of shape \({dim},\)"):
            rhs(flat)


@needs_scipy
def test_compiled_rhs_reads_a_float32_state_as_its_values(grid32):
    # the bilinear term multiplies by its coefficient held as a 0-d float64
    # array, which numpy 1 and numpy 2 promote differently against float32:
    # the public call must read a float32 state as its float64 values
    model = bg.build_model(bg.ModelId.TIMOSHENKO_NEW, ModelParams(), grid32)
    rhs = compile_rhs(model)
    y = bg.random_state(model, np.random.default_rng(6)).flat.astype(np.float32)
    assert rhs(y).tobytes() == rhs(y.astype(float)).tobytes()


@needs_scipy
def test_compiled_rhs_takes_no_work_buffer(grid32):
    # the kernel writes as many floats as an evaluator's work buffer holds
    # into whatever buffer it is given, so the public call takes none: a
    # buffer of the wrong length, of the wrong dtype or strided is refused
    # before the kernel runs and left untouched
    model = bg.build_model(bg.ModelId.TIMOSHENKO_NEW, ModelParams(), grid32)
    rhs = compile_rhs(model)
    y = bg.random_state(model, np.random.default_rng(4)).flat
    rows = engine._sparse_form(model).evaluator()(y).base.size
    for out in (np.full(10, 7.0), np.full(rows, 7, dtype=np.int64), np.full(2 * rows, 7.0)[::2],
                np.full(rows, 7.0)):
        before = out.copy()
        with pytest.raises(TypeError):
            rhs(y, out)
        assert out.tobytes() == before.tobytes()
    # the state itself may be strided or of integers: the call reads its
    # values, never past its end
    want = rhs(y)
    strided = np.repeat(y, 2)[::2]
    assert rhs(strided).tobytes() == want.tobytes()
    ints = np.arange(y.size)
    assert rhs(ints).tobytes() == rhs(ints.astype(float)).tobytes()


@needs_scipy
@pytest.mark.parametrize(
    "n, mid",
    [(n, mid) for n in (4, 5, 7, 32, 64) for mid in LINEAR_IDS]
    + [(512, bg.ModelId.BRESSE_HEAT_II)],
)
def test_integrate_matches_stage_rk4(n, mid):
    # the linear models step on their Fourier symbols; ten steps from a
    # random state (every wavenumber excited, nonzero reservoir) must give
    # the stage form's records to roundoff
    model = bg.build_model(mid, ModelParams(), Grid(n, 1.0))
    z0 = bg.random_state(model, np.random.default_rng(n))
    assert z0.reservoir != 0.0
    cfg = IntegratorConfig(dt=model.dt_bound, t_end=10 * model.dt_bound, record_every=3)
    got = integrate(model, z0, cfg)
    want = _stage_reference(model, z0, cfg)
    assert [r.t for r in got] == [r.t for r in want]
    for a, b in zip(got, want):
        for name in ("energy", "entropy", "mech_energy", "res_l_ds", "res_m_de"):
            x, y = getattr(a, name), getattr(b, name)
            assert abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y)), (n, mid, a.t, name)


@pytest.mark.parametrize("n", (64, 512))
@pytest.mark.parametrize("mid", (bg.ModelId.TIMOSHENKO_HEAT_I, bg.ModelId.BRESSE_HEAT_II))
def test_map_power_matches_sequential_steps(n, mid):
    # [P^m; H_m] by squaring against m steps of the one-step map, chained one
    # by one: P^m = P P^(m-1) and H_m = sum_(j<m) (P^j)^H H P^j
    model = bg.build_model(mid, ModelParams(), Grid(n, 1.0))
    sparse = engine._sparse_form(model)
    step = engine._rk4_symbol_map(sparse, n, model.dt_bound)
    f = model.layout.n_fields
    p, h = step[:, :f], step[:, f:]
    power = np.broadcast_to(np.eye(f), p.shape).astype(complex)
    gain = np.zeros_like(power)
    done = 0
    for m in (1, 2, 3, 10, 1000):
        for _ in range(m - done):
            gain += power.conj().transpose(0, 2, 1) @ h @ power
            power = p @ power
        done = m
        got = engine._map_power(step, m)
        for part, want in ((got[:, :f], power), (got[:, f:], gain)):
            scale = float(np.max(np.abs(want)))
            assert scale > 0.0
            assert float(np.max(np.abs(part - want))) <= 1e-12 * scale, (mid, n, m)


@pytest.mark.parametrize("n", (5, 16, 64))
def test_one_step_map_is_the_taylor_polynomial_with_a_psd_gain(n):
    # P of every bin must be I + Z + Z^2/2 + Z^3/6 + Z^4/24 with Z = dt A(k),
    # and the reservoir's gain H Hermitian and positive semidefinite, each
    # to roundoff
    for mid in LINEAR_IDS:
        model = bg.build_model(mid, ModelParams(), Grid(n, 1.0))
        sparse = engine._sparse_form(model)
        f = model.layout.n_fields
        for dt in (model.dt_bound, 0.3 * model.dt_bound):
            step = engine._rk4_symbol_map(sparse, n, dt)
            p, h = step[:, :f], step[:, f:]
            z = dt * sparse.symbols
            powers = [np.broadcast_to(np.eye(f), z.shape)]
            for _ in range(4):
                powers.append(powers[-1] @ z)
            taylor = sum(power / math.factorial(j) for j, power in enumerate(powers))
            assert rel_inf(p, taylor) <= 1e-14, (mid, n, dt)
            scale = float(np.max(np.abs(h)))
            h_adjoint = h.conj().transpose(0, 2, 1)
            assert float(np.max(np.abs(h - h_adjoint))) <= 1e-14 * scale, (mid, n, dt)
            lowest = float(np.min(np.linalg.eigvalsh(0.5 * (h + h_adjoint)), initial=0.0))
            assert lowest >= -1e-14 * scale, (mid, n, dt)
            if model.damped:
                assert scale > 0.0, (mid, n)


def test_sweep_on_one_model_matches_fresh_models(grid32):
    # the maps of one (dt, record_every) must never serve another: the same
    # model run over a sweep gives bitwise the records of a freshly built one
    mid = bg.ModelId.BRESSE_HEAT_I
    model = bg.build_model(mid, ModelParams(), grid32)
    z0 = bg.random_state(model, np.random.default_rng(7))
    bound = model.dt_bound
    for dt, t_end, record_every in ((bound, 20 * bound, 4), (0.5 * bound, 7 * bound, 4),
                                    (0.5 * bound, 7 * bound, 5), (0.5 * bound, 9 * bound, 5),
                                    (bound, 20 * bound, 4)):
        cfg = IntegratorConfig(dt=dt, t_end=t_end, record_every=record_every)
        fresh = bg.build_model(mid, ModelParams(), grid32)
        assert integrate(model, z0, cfg) == integrate(fresh, z0, cfg), cfg


def test_divergence_on_the_first_step_of_a_long_interval(models32):
    model = models32[bg.ModelId.TIMOSHENKO_FRICTIONAL]
    z0 = State.zeros(model.layout)
    z0.field("p")[:] = 1e200
    with pytest.raises(DivergenceError) as info:
        integrate(model, z0, IntegratorConfig(dt=1e-3, t_end=1.0, record_every=100))
    assert info.value.step == 1
    assert "step 1 (t = 0.001;" in str(info.value)


def _last_record_named(message, model, z0, dt, step):
    # the message names the record of step - 1, the last before the failure
    before = integrate(model, z0, IntegratorConfig(dt=dt, t_end=(step - 1) * dt, record_every=1))[-1]
    assert before.t == (step - 1) * dt
    assert f"last recorded energy {before.energy:.6g} at t = {before.t:g})" in message


def test_divergence_inside_an_interval_names_the_exact_step(grid32):
    # scale the state so that its first step alone raises the reservoir to
    # about a fifth of the largest float: the reservoir overflows a few steps
    # later, strictly inside a record interval of ten, and the step named
    # must be the one a run recording every step names
    model = bg.build_model(bg.ModelId.TIMOSHENKO_FRICTIONAL, ModelParams(), grid32)
    z0 = bg.random_state(model, np.random.default_rng(3))
    z0.reservoir = 0.0
    cfg = IntegratorConfig(dt=1e-3, t_end=1.0, record_every=10)
    first = integrate(model, z0, IntegratorConfig(dt=1e-3, t_end=1e-3))
    gain = first[1].entropy - first[0].entropy   # alpha = 1: S = e
    scale = math.sqrt(float(np.finfo(float).max) / 4.5) / math.sqrt(gain)
    z0 = State(model.layout, scale * z0.flat)
    with pytest.raises(DivergenceError) as each:
        integrate(model, z0, IntegratorConfig(dt=1e-3, t_end=1.0, record_every=1))
    assert 1 < each.value.step < cfg.record_every
    _last_record_named(str(each.value), model, z0, 1e-3, each.value.step)
    with pytest.raises(DivergenceError) as info:
        integrate(model, z0, cfg)
    assert info.value.step == each.value.step
    assert f"step {each.value.step} (t = {each.value.step * 1e-3:g};" in str(info.value)


def test_finite_replay_goes_on_from_the_replayed_state():
    # with the reservoir at the largest float, a gain below half its ulp
    # (2**970) rounds back to it: scale the fields so that the first step
    # alone gains 0.85 * 2**970, which each single step leaves there, while
    # the first interval's ten-step map (which sums about 1.33 first-step
    # gains) overflows.  The replay is then finite, and the run must go on
    # from it, not raise
    model = bg.build_model(bg.ModelId.TIMOSHENKO_FRICTIONAL, ModelParams(), Grid(16, 1.0))
    dt = model.dt_bound
    z0 = bg.random_state(model, np.random.default_rng(5))
    z0.reservoir = 0.0
    first = integrate(model, z0, IntegratorConfig(dt=dt, t_end=dt))
    gain = first[1].entropy - first[0].entropy   # alpha = 1: S = e
    z0 = State(model.layout, math.sqrt(0.85 * 2.0**970 / gain) * z0.flat)
    z0.reservoir = float(np.finfo(float).max)
    got = integrate(model, z0, IntegratorConfig(dt=dt, t_end=40 * dt, record_every=10))
    each = integrate(model, z0, IntegratorConfig(dt=dt, t_end=40 * dt, record_every=1))
    assert len(got) == 5
    assert got[1].entropy == np.finfo(float).max
    # the replayed interval took the single steps: bitwise the same state
    assert _record_bytes(got[:2]) == _record_bytes(each[:11:10])
    for a, b in zip(got[2:], each[20::10]):
        assert a.t == b.t
        for name in ("energy", "entropy", "mech_energy", "res_l_ds", "res_m_de"):
            x, y = getattr(a, name), getattr(b, name)
            assert abs(x - y) <= 1e-12 * max(abs(x), abs(y)), (a.t, name)


def _one_row_records(model, z0, cfg):
    """integrate's records, each from a one-row _diagnostics call on its
    own state, brought back to the grid alone."""
    sparse = engine._sparse_form(model)
    y = z0.flat.copy()
    if model.id is bg.ModelId.TIMOSHENKO_NEW:
        path = engine._stage_path(sparse, y, cfg.dt, model.layout.field_slice("theta"))
    else:
        path = engine._symbol_path(model, sparse, y, cfg)
    state, jump, to_grid = path
    records = _diagnostics(model, sparse, (0.0,), y[None])
    step = 0
    while step < cfg.n_steps:
        interval = min(cfg.record_every, cfg.n_steps - step)
        state, ok = jump(state, interval)
        assert ok
        step += interval
        records += _diagnostics(model, sparse, (step * cfg.dt,), to_grid([state]))
    return records


def _record_bytes(records):
    return np.array([tuple(r) for r in records]).tobytes()


@needs_scipy
@pytest.mark.parametrize("n", (16, 64, 512))
def test_stacked_records_equal_one_row_records(n, monkeypatch):
    # integrate records its held states in stacks of stack_rows states, the
    # initial record the first row of the first: over rows - 2, rows - 1 and
    # rows intervals that stack is one short of full, full, and full with
    # one state left for a second, the last interval a remainder.  Each
    # stack is one _diagnostics call, with no call for the initial record
    # alone, and every record must be bitwise the one-row record
    stacks = []

    def diagnostics(model, sparse, times, flats):
        stacks.append(len(flats))
        return _diagnostics(model, sparse, times, flats)

    for mid in bg.ALL_MODEL_IDS:
        model = bg.build_model(mid, ModelParams(), Grid(n, 1.0))
        if mid is bg.ModelId.TIMOSHENKO_NEW:
            z0 = bg.default_initial_state(mid, model.grid, mode=2, amplitude=0.2)
        else:
            z0 = bg.random_state(model, np.random.default_rng(n))
        rows = stack_rows(model.layout)
        for intervals in (rows - 2, rows - 1, rows):
            dt = 0.5 * model.dt_bound
            cfg = IntegratorConfig(dt=dt, t_end=(3 * intervals - 1) * dt, record_every=3)
            assert cfg.n_steps % 3 == 2
            stacks.clear()
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_diagnostics", diagnostics)
                got = integrate(model, z0, cfg)
            assert stacks == ([rows, 1] if intervals == rows else [intervals + 1]), (mid, intervals)
            assert len(got) == intervals + 1
            assert _record_bytes(got) == _record_bytes(_one_row_records(model, z0, cfg)), (mid, intervals)


def test_a_failure_in_the_first_interval_names_the_initial_record(grid32):
    # the initial record is held in the first stack with the interval's
    # states: a failure before the first interval ends must still record
    # it, and name it as the last record.
    # The Fourier path: the reservoir overflows a few steps in, as in
    # test_divergence_inside_an_interval_names_the_exact_step (its energy
    # is inf from the start; the sinking model's is finite)
    fourier = bg.build_model(bg.ModelId.TIMOSHENKO_FRICTIONAL, ModelParams(), grid32)
    z0 = bg.random_state(fourier, np.random.default_rng(3))
    z0.reservoir = 0.0
    first = integrate(fourier, z0, IntegratorConfig(dt=1e-3, t_end=1e-3))
    gain = first[1].entropy - first[0].entropy
    z0 = State(fourier.layout, math.sqrt(float(np.finfo(float).max) / 4.5) / math.sqrt(gain) * z0.flat)
    # The stage path: theta reaches zero at step 1000
    sinking = _sinking_model(grid32)
    for model, z0, error in ((fourier, z0, DivergenceError),
                             (sinking, sinking.reference_state.copy(), PositivityError)):
        initial = integrate(model, z0, IntegratorConfig(dt=1e-3, t_end=1e-3))[0]
        assert initial.t == 0.0
        with pytest.raises(error) as info:
            integrate(model, z0, IntegratorConfig(dt=1e-3, t_end=2.0, record_every=2000))
        assert f"; last recorded energy {initial.energy:.6g} at t = 0)" in str(info.value), model.id


def test_positivity_error_with_held_records_names_the_last_record(grid32):
    # theta = 1 - t: the failure near step 1000 comes with hundreds of
    # records held, more than one stack of them already recorded
    model = _sinking_model(grid32)
    z0 = model.reference_state.copy()
    assert stack_rows(model.layout) < 900
    with pytest.raises(PositivityError) as info:
        integrate(model, z0, IntegratorConfig(dt=1e-3, t_end=2.0, record_every=1))
    message = str(info.value)
    step = int(re.search(r"at step (\d+)", message).group(1))
    assert 990 < step < 1010
    _last_record_named(message, model, z0, 1e-3, step)


@pytest.mark.parametrize("record_every", (1, 7, 100))
def test_positivity_error_names_the_same_step_at_any_interval(grid32, record_every):
    # a cold but finite step goes through the replay that names a first bad
    # step: every record interval must name the step and the temperature a
    # run recording every step names
    model = _sinking_model(grid32)
    with pytest.raises(PositivityError) as info:
        integrate(model, model.reference_state.copy(),
                  IntegratorConfig(dt=1e-3, t_end=2.0, record_every=record_every))
    assert "temperature became nonpositive at step 1000 (min -8.8124e-16; t = 1;" in str(info.value)


def _dipping_model(grid):
    """TimoshenkoNew with a preset compiled right-hand side under which
    theta falls at unit rate until t = 1.0035 and then rises at unit rate;
    the first slot of p is the clock, advancing at unit rate from 0."""
    base = bg.build_model("TimoshenkoNew", ModelParams(), grid)
    dim = base.layout.flat_dim
    theta = base.layout.field_slice("theta")
    clock = base.layout.field_slice("p").start

    def dipping():
        k = np.empty(dim)

        def evaluate(flat):
            k[:] = 0.0
            k[clock] = 1.0
            k[theta] = -1.0 if flat[clock] < 1.0035 else 1.0
            return k
        return evaluate

    return _with_stage_rhs(base, dipping)


def test_stage_running_minimum_catches_a_dip_inside_an_interval(grid32):
    # from theta = 1.0025 the temperature is cold at step 1003 (dt = 1e-3),
    # strictly inside the record intervals 1002..1008 of 7 and 1001..1020 of
    # 20, and warm again at the end of both: the stage loop's running minimum
    # must fail those intervals, and the replay name the step and the
    # temperature that a run recording every step names
    model = _dipping_model(grid32)
    z0 = model.reference_state.copy()
    z0.field("theta")[:] = 1.0025
    theta = model.layout.field_slice("theta")
    _, jump, _ = engine._stage_path(engine._sparse_form(model), z0.flat.copy(), 1e-3, None)
    state, lows = z0.flat.copy(), []
    for steps in (1002, 1, 5, 12):  # to steps 1002, 1003, 1008 and 1020
        state, ok = jump(state, steps)
        assert ok
        lows.append(float(np.min(state[theta])))
    assert lows[0] > 0.0 and lows[1] < 0.0 and lows[2] > 0.0 and lows[3] > 0.0, lows
    named = []
    for record_every in (1, 7, 20):
        with pytest.raises(PositivityError) as info:
            integrate(model, z0, IntegratorConfig(dt=1e-3, t_end=2.0, record_every=record_every))
        named.append(re.search(r"at step (\d+) \(min (\S+);", str(info.value)).groups())
    assert named == [("1003", f"{lows[1]:g}")] * 3


def _growing_model(grid):
    """TimoshenkoNew with a preset compiled right-hand side that multiplies
    the first slot by 1000 per unit time and leaves theta alone."""
    base = bg.build_model("TimoshenkoNew", ModelParams(), grid)
    dim = base.layout.flat_dim

    def growing():
        k = np.empty(dim)

        def evaluate(flat):
            k[:] = 0.0
            k[0] = 1000.0 * flat[0]
            return k
        return evaluate

    return _with_stage_rhs(base, growing)


def test_stage_divergence_inside_an_interval_names_the_exact_step(grid32):
    # the stage loop checks finiteness once per interval: a slot that
    # overflows strictly inside the second interval of ten must be named at
    # the step a run recording every step names
    model = _growing_model(grid32)
    z0 = model.reference_state.copy()
    z0.flat[0] = 1e300
    with pytest.raises(DivergenceError) as each:
        integrate(model, z0, IntegratorConfig(dt=1e-3, t_end=1.0, record_every=1))
    step = each.value.step
    assert 10 < step < 20
    _last_record_named(str(each.value), model, z0, 1e-3, step)
    with pytest.raises(DivergenceError) as info:
        integrate(model, z0, IntegratorConfig(dt=1e-3, t_end=1.0, record_every=10))
    assert info.value.step == step
    assert f"step {step} (t = {step * 1e-3:g}; last recorded energy" in str(info.value)
    assert str(info.value).endswith("at t = 0.01)")


def test_linear_models_never_call_compiled_rhs_in_integrate(grid32):
    made = []

    def raising():
        made.append(None)

        def evaluate(flat):
            raise AssertionError("integrate called the compiled right-hand side")
        return evaluate

    for mid in bg.ALL_MODEL_IDS:
        model = _with_stage_rhs(bg.build_model(mid, ModelParams(), grid32), raising)
        z0 = bg.default_initial_state(mid, grid32)
        cfg = IntegratorConfig(dt=1e-4, t_end=1e-3)
        made.clear()
        if mid is bg.ModelId.TIMOSHENKO_NEW:
            # the bilinear coupling keeps it on the stage form
            with pytest.raises(AssertionError, match="compiled right-hand side"):
                integrate(model, z0, cfg)
            assert len(made) == 4
        else:
            # no evaluator made: making one builds the CSR matrix and loads scipy
            assert len(integrate(model, z0, cfg)) == cfg.n_steps + 1, mid
            assert not made, mid


def _doubled_square(field):
    # an edit of a model's energy terms: the unit square of field, doubled
    def edit(terms):
        return tuple(SquareTerm(2.0, t.parts) if t == SquareTerm(1.0, ((field, False, 1.0),)) else t
                     for t in terms)
    return edit


@pytest.mark.parametrize("mid, edit, floor", (
    # with 2 p^2 / 2 in the energy, dE_p = 2 p, while the friction row's
    # reservoir coupling removes only p: M dE = J^T w J dE with J dE = p
    ("TimoshenkoFrictional", _doubled_square("p"), 1e-3),
    # the same through a differentiated row: J dE = D theta
    ("TimoshenkoHeatI", _doubled_square("theta"), 1e-3),
    # a linear density of a dissipated field: the offset R c = 1
    ("TimoshenkoFrictional", lambda terms: terms + (LinearTerm("p", 1.0),), 1e-4),
    # no reservoir: J dE = D dE_theta = D theta
    ("TimoshenkoNew", lambda terms: terms + (SquareTerm(1.0, (("theta", False, 1.0),)),), 1e-3),
), ids=("friction-square", "heat-square", "friction-linear", "new-square"))
def test_record_form_is_checked_when_derived(grid32, mid, edit, floor):
    # the record's |M dE| = 0 rests on the derivation's proof of M dE = 0,
    # so a model without it is refused before it records
    base = bg.build_model(mid, ModelParams(), grid32)
    terms = edit(base.energy_terms)
    assert terms != base.energy_terms
    model = dataclasses.replace(base, energy_terms=terms)
    z0 = bg.default_initial_state(model.id, grid32)
    for call in (lambda: compile_rhs(model),
                 lambda: integrate(model, z0, IntegratorConfig(dt=1e-4, t_end=1e-3))):
        with pytest.raises(ValueError, match=f"{mid}: the degeneracy M dE = 0"):
            call()
    # the object-level verifier, which needs no derivation, still measures it
    checks = {c.name: c for c in verify_brackets(model, trials=5).checks}
    assert not checks["degeneracy_MdE"].passed
    assert checks["degeneracy_MdE"].max_residual > floor
    assert all(checks[name].passed for name in ("antisymmetry", "symmetry", "psd", "degeneracy_LdS"))


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


def test_verify_brackets_rejects_bool_trials(models32):
    with pytest.raises(ValueError, match="trials"):
        verify_brackets(models32[bg.ModelId.TIMOSHENKO_UNDAMPED], trials=True)


@pytest.mark.parametrize("seed", (-1, True, 1.0, "0"))
def test_verify_brackets_rejects_a_seed_that_is_not_a_non_negative_integer(models32, seed):
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
        verify_brackets(models32[bg.ModelId.TIMOSHENKO_UNDAMPED], trials=1, seed=seed)


def test_verify_brackets_takes_numpy_integer_seeds(models32):
    model = models32[bg.ModelId.TIMOSHENKO_UNDAMPED]
    assert verify_brackets(model, trials=2, seed=np.int64(0)) == verify_brackets(model, trials=2, seed=0)


def test_verify_work_counts_the_trial_weight(models32, monkeypatch):
    # trials times slots at the limit itself pass unweighted, so only the
    # weight rejects them, before the first draw
    def no_draw(model, draws):
        raise AssertionError("verify_brackets drew a trial")

    monkeypatch.setattr(engine, "_state_from_draws", no_draw)
    model = models32[bg.ModelId.TIMOSHENKO_UNDAMPED]
    dim = model.layout.flat_dim
    trials = int(engine.WORK_LIMIT) // dim
    work = trials * dim * engine.VERIFY_WORK_WEIGHT
    assert trials * dim <= engine.WORK_LIMIT < work
    with pytest.raises(ValueError, match=re.escape(f"estimated work {work:.3g} slot updates is above")):
        verify_brackets(model, trials=trials)


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
    assert residual <= 1e-10 * scale


def test_jacobi_repeated_functional_collapses(models32):
    model = models32[bg.ModelId.TIMOSHENKO_HEAT_I]
    rng = np.random.default_rng(32)
    z = bg.random_state(model, rng)
    f1 = bg.random_test_functional(model.layout, rng)
    f3 = bg.random_test_functional(model.layout, rng)
    residual, scale = jacobi_check(model, z, f1, f1, f3, h=1e-3)
    assert residual <= 1e-10 * scale


def _cyclic_terms_by_fd_gradient(model, z, fs, h):
    """The three terms of the cyclic sum with the full finite-difference
    gradient of each inner bracket: the oracle of the directional form."""
    f1, f2, f3 = fs
    terms = []
    for fa, fb, fc in ((f1, f2, f3), (f2, f3, f1), (f3, f1, f2)):
        inner = bg.fd_gradient(lambda s: bg.poisson_bracket(model, s, fa, fb), z, rel_step=h)
        terms.append(bg.mixed_inner(model.layout, inner.flat, bg.apply_L(model, z, fc.grad(z)).flat))
    return terms


def test_jacobi_matches_the_fd_gradient_oracle():
    # functionals ten times the drawn ones put every model's terms above the
    # scale's floor of 1 (the smallest largest term is about 2e2); the two
    # scales agreed to <= 1.5e-14 at n = 16 and 64 (3 draws per model)
    grid = Grid(16, 1.0)
    rng = np.random.default_rng(35)
    for mid in bg.ALL_MODEL_IDS:
        model = bg.build_model(mid, ModelParams(), grid)
        for _ in range(2):
            z = bg.random_state(model, rng)
            fs = []
            for _ in range(3):
                f = bg.random_test_functional(model.layout, rng)
                fs.append(bg.TestFunctional(f.z0, 10.0 * f.diag,
                                            bg.CotangentVector(model.layout, 10.0 * f.c.flat)))
            terms = _cyclic_terms_by_fd_gradient(model, z, fs, h=0.1)
            oracle_scale = max(1.0, *(abs(t) for t in terms))
            assert oracle_scale > 10.0, mid
            residual, scale = jacobi_check(model, z, *fs, h=0.1)
            assert abs(scale - oracle_scale) <= 1e-13 * oracle_scale, mid
            assert residual <= 1e-12 * scale, mid
            assert abs(sum(terms)) <= 1e-12 * oracle_scale, mid


@pytest.mark.parametrize("eps", [1e-5, 1e-9])
def test_jacobi_detects_an_antisymmetric_mutant(grid32, eps):
    # an antisymmetric pair of blocks coupling p and theta through q keeps L
    # antisymmetric but breaks Jacobi by O(eps); a bound of 1e-4 of the
    # scale passes the eps = 1e-5 mutant, the directional form's 1e-12 fails
    # both (residual/scale measured 0.02-0.2 eps per draw)
    base = bg.build_model("TimoshenkoNew", ModelParams(), grid32)
    mutant = dataclasses.replace(base, l_blocks=tuple(base.l_blocks) + (
        ("p", "theta", Block("d1_mul", eps, "q")),
        ("theta", "p", Block("mul_d1", eps, "q")),
    ))
    rng = np.random.default_rng(34)
    ratios = []
    for _ in range(3):
        z = bg.random_state(mutant, rng)
        fs = [bg.random_test_functional(mutant.layout, rng) for _ in range(3)]
        residual, scale = jacobi_check(mutant, z, *fs, h=0.1)
        assert residual > 1e-12 * scale
        ratios.append(residual / scale)
    assert max(ratios) >= 0.1 * eps


def test_jacobi_zero_functional_gives_zero(models32):
    # a functional with zero diag and c has dF = 0, so L dF = 0: the step
    # t = h (1 + |z|) / |L dF| is never formed and the term is exactly 0
    model = models32[bg.ModelId.TIMOSHENKO_NEW]
    rng = np.random.default_rng(36)
    z = bg.random_state(model, rng)
    f1, f2 = (bg.random_test_functional(model.layout, rng) for _ in range(2))
    zero = bg.TestFunctional(f1.z0, np.zeros_like(f1.diag), bg.CotangentVector.zeros(model.layout))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fs in ((f1, f2, zero), (zero, zero, zero)):
            residual, scale = jacobi_check(model, z, *fs, h=0.1)
            assert math.isfinite(residual) and math.isfinite(scale)
            assert residual == 0.0
            assert scale == 1.0


def test_test_functionals_of_another_layout_are_rejected(models32):
    # TimoshenkoHeatIII's layout has as many slots as TimoshenkoHeatII's, so
    # only the layout comparison tells its functionals from the model's
    model = models32[bg.ModelId.TIMOSHENKO_HEAT_II]
    other = models32[bg.ModelId.TIMOSHENKO_HEAT_III].layout
    assert other.flat_dim == model.layout.flat_dim
    rng = np.random.default_rng(34)
    z = bg.random_state(model, rng)
    fs = [bg.random_test_functional(other, rng) for _ in range(3)]
    message = "state layout does not match the test functional's layout"
    with pytest.raises(ValueError, match=message):
        jacobi_check(model, z, *fs, h=1e-3)
    with pytest.raises(ValueError, match=message):
        engine.poisson_bracket(model, z, fs[0], fs[1])


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


def test_transform_diagonal_of_the_wrong_length_rejected(models32):
    model = models32[bg.ModelId.TIMOSHENKO_FRICTIONAL]
    z0 = bg.default_initial_state(model.id, model.grid)
    for size in (model.layout.flat_dim - 1, model.layout.flat_dim + 1):
        with pytest.raises(ValueError, match="wrong dimension"):
            transform_check(model, np.ones(size), z0, IntegratorConfig(dt=1e-3, t_end=0.1))


def test_transform_complex_diagonal_rejected(models32):
    # a cast would run the check with the diagonal's real part, 2, and
    # report a transform it never applied
    model = models32[bg.ModelId.TIMOSHENKO_FRICTIONAL]
    z0 = bg.default_initial_state(model.id, model.grid)
    t_diag = np.full(model.layout.flat_dim, 2.0 + 1j)
    with pytest.raises(ValueError, match="complex128"):
        transform_check(model, t_diag, z0, IntegratorConfig(dt=1e-3, t_end=0.1))


def test_transform_singular_rejected(models32):
    model = models32[bg.ModelId.TIMOSHENKO_FRICTIONAL]
    t_diag = uniform_scaling(model.layout, 1.0)
    t_diag[0] = 0.0
    z0 = bg.default_initial_state(model.id, model.grid)
    with pytest.raises(ValueError):
        transform_check(model, t_diag, z0, IntegratorConfig(dt=1e-3, t_end=0.1))


@pytest.mark.parametrize("other", ("TimoshenkoHeatIII", "TimoshenkoHeatI"))
def test_transform_check_rejects_a_state_of_another_layout(other):
    # TimoshenkoHeatIII's state has TimoshenkoHeatII's 97 slots at n = 16,
    # TimoshenkoHeatI's 81
    grid = Grid(16, 1.0)
    model = bg.build_model(bg.ModelId.TIMOSHENKO_HEAT_II, ModelParams(), grid)
    z0 = bg.default_initial_state(other, grid)
    with pytest.raises(ValueError, match="initial state layout does not match model TimoshenkoHeatII"):
        transform_check(model, uniform_scaling(model.layout, 2.0), z0, IntegratorConfig(1e-3, 1e-2, 5))


def test_transform_check_of_a_divergent_run_raises():
    # both trajectories overflow to NaN, whose mismatch a max over the
    # samples would drop, reading as a perfect pass
    grid = Grid(16, 1.0)
    model = bg.build_model(bg.ModelId.TIMOSHENKO_FRICTIONAL, ModelParams(), grid)
    z0 = bg.default_initial_state(model.id, grid, amplitude=1e200)
    with pytest.raises(DivergenceError) as info:
        transform_check(model, uniform_scaling(model.layout, 3.0), z0, IntegratorConfig(1e-3, 1e-2, 1))
    assert info.value.step == 1
    assert str(info.value) == "non-finite state at step 1"


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


@pytest.mark.parametrize("bad", ("t", "mech_energy"))
@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
def test_decay_fits_reject_a_non_finite_fit_window(bad, value):
    # a NaN slope (an overflowed energy) or a failed SVD (a NaN time) is not a
    # rate: both fits refuse the window, naming the first bad record
    records = _fake_records([math.exp(-0.1 * i) for i in range(20)])
    for index in (14, 17):
        records[index] = records[index]._replace(**{bad: value})
    for fit in (decay_rate, windowed_decay_rates):
        with pytest.raises(DomainError, match=r"^record 14 in the fit window is not finite "):
            fit(records)
    # the first half is not fitted
    records = _fake_records([math.exp(-0.1 * i) for i in range(20)])
    records[3] = records[3]._replace(**{bad: value})
    assert decay_rate(records) == pytest.approx(-1.0, rel=1e-12)


def _exact_slope(t, y):
    """The least-squares slope of the floats t and y, in exact arithmetic."""
    t = [Fraction(float(v)) for v in t]
    y = [Fraction(float(v)) for v in y]
    count, st, sy = len(t), sum(t), sum(y)
    sty = sum(a * b for a, b in zip(t, y))
    stt = sum(a * a for a in t)
    return (count * sty - st * sy) / (count * stt - st * st)


@pytest.mark.parametrize("mid", (bg.ModelId.TIMOSHENKO_UNDAMPED, bg.ModelId.BRESSE_UNDAMPED,
                                 bg.ModelId.BRESSE_HEAT_I))
def test_decay_fits_are_the_exact_least_squares_slopes(mid):
    # the CLI's default decay run: the undamped models' slopes of ~1e-12
    # sit beside log energies of order one, where an SVD solve of the
    # uncentred system lost five digits; the closed form keeps them all
    grid = Grid(64, 1.0)
    model = bg.build_model(mid, ModelParams(), grid)
    z0 = bg.default_initial_state(mid, grid)
    records = integrate(model, z0, IntegratorConfig(dt=min(1e-3, model.dt_bound), t_end=10.0,
                                                    record_every=10))
    t, log_me = engine._log_mech_energy_tail(records)
    exact = _exact_slope(t, log_me)
    assert abs(Fraction(decay_rate(records)) - exact) <= 1e-12 * abs(exact)
    bounds = np.linspace(0, len(t) - 1, DECAY_WINDOWS + 1).astype(int)
    for rate, a, b in zip(windowed_decay_rates(records), bounds[:-1], bounds[1:]):
        exact = _exact_slope(t[a:b + 1], log_me[a:b + 1])
        assert abs(Fraction(rate) - exact) <= 1e-12 * abs(exact), (a, b)


def test_decay_rates_on_trajectories(grid32):
    fric = bg.build_model("TimoshenkoFrictional", ModelParams(), grid32)
    z0 = bg.default_initial_state(fric.id, grid32)
    records = integrate(fric, z0, IntegratorConfig(dt=1e-3, t_end=6.0, record_every=20))
    assert decay_rate(records) < -1e-3

    und = bg.build_model("TimoshenkoUndamped", ModelParams(), grid32)
    z0 = bg.default_initial_state(und.id, grid32)
    records = integrate(und, z0, IntegratorConfig(dt=1e-3, t_end=6.0, record_every=20))
    assert abs(decay_rate(records)) <= 1e-6


def _exponential_records(count, rate=-0.5):
    return [
        DiagnosticsRecord(t=0.1 * i, energy=1.0, entropy=0.0, mech_energy=math.exp(rate * 0.1 * i),
                          res_l_ds=0.0, res_m_de=0.0, theta_min=math.nan)
        for i in range(count)
    ]


@pytest.mark.parametrize("count", range(2 * DECAY_WINDOWS - 1, 20))
def test_windowed_decay_rates_never_drop_a_window(count):
    # neighbouring windows share their end record: a last half of
    # DECAY_WINDOWS + 1 records (11 records) is the least that gives every
    # window two; fewer raise instead of returning fewer rates
    records = _exponential_records(count)
    if count - count // 2 < DECAY_WINDOWS + 1:
        with pytest.raises(ValueError, match="last half"):
            windowed_decay_rates(records)
        return
    rates = windowed_decay_rates(records)
    assert len(rates) == DECAY_WINDOWS
    assert rates == pytest.approx([-0.5] * DECAY_WINDOWS, abs=1e-9)


THERMAL_IDS = (bg.ModelId.TIMOSHENKO_HEAT_I, bg.ModelId.TIMOSHENKO_HEAT_II,
               bg.ModelId.TIMOSHENKO_HEAT_III, bg.ModelId.BRESSE_HEAT_I, bg.ModelId.BRESSE_HEAT_II)


@pytest.mark.parametrize("n", (16, 64, 256))
def test_thermal_models_leave_only_the_sawtooth_undamped(n):
    # the central difference vanishes at k = n/2, so the heat coupling cannot
    # reach that mode's motion (measured <= 8.5e-17); every other mode is
    # damped (the weakest measured, TimoshenkoHeatII at n = 256, -7.6e-6)
    for mid in THERMAL_IDS:
        model = bg.build_model(mid, ModelParams(), Grid(n, 1.0))
        assert abs(engine.mode_abscissa(model, n // 2)) <= 1e-12, (mid, n)
        for k in range(1, n // 2):
            assert engine.mode_abscissa(model, k) < 0.0, (mid, n, k)


@pytest.mark.parametrize("stiffness", (1.0, 1e-16, 1e-22))
def test_mode_abscissa_of_a_slowly_moving_mode_reads_its_motion(stiffness):
    # TimoshenkoUndamped's mode 1 oscillates with zero real part at |lambda|
    # 6.8, 6.8e-8 and 6.8e-11: the abscissa is roundoff of that size at
    # every scale, never -inf ("every eigenvalue is zero"), which an absolute
    # cut of small eigenvalues read at 1e-22
    model = bg.build_model(bg.ModelId.TIMOSHENKO_UNDAMPED, ModelParams(k=stiffness, b=stiffness),
                           Grid(64, 1.0))
    radius = float(np.max(np.abs(np.linalg.eigvals(engine._sparse_form(model).symbols[1]))))
    assert 6.7 <= radius / math.sqrt(stiffness) <= 6.9
    got = engine.mode_abscissa(model, 1)
    assert math.isfinite(got) and abs(got) <= 1e-12 * radius, got


@pytest.mark.parametrize("mode", (0, 17, True, 1.0))
def test_mode_abscissa_rejects_a_mode_outside_1_to_half_n(models32, mode):
    # n = 32: the modes are 1..16; a bool is not a mode, nor is a float
    with pytest.raises(ValueError, match=r"mode must be an integer in 1\.\.16 on n = 32 nodes"):
        engine.mode_abscissa(models32[bg.ModelId.TIMOSHENKO_FRICTIONAL], mode)


@pytest.mark.parametrize("n", (16, 64, 256))
@pytest.mark.parametrize("mid", (bg.ModelId.TIMOSHENKO_FRICTIONAL, bg.ModelId.BRESSE_FRICTIONAL))
def test_frictional_models_damp_every_mode_at_half_the_friction(n, mid):
    # unit friction on the momenta: every nonzero eigenvalue has Re = -1/2,
    # the sawtooth included (its zero eigenvalue is a steady state)
    model = bg.build_model(mid, ModelParams(), Grid(n, 1.0))
    for k in range(1, n // 2 + 1):
        assert abs(engine.mode_abscissa(model, k) + 0.5) <= 1e-12, (n, k)
