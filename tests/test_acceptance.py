"""Acceptance suite: every criterion at desk scale (n=64, unit length, unit
parameters, dt = 1e-3 capped at each model's stability bound, T=10).

Each test prints one `ACCEPTANCE <n> ... PASS` line when its assertions hold;
pytest failure output marks the criterion FAIL otherwise.
"""

import math

import numpy as np
import pytest

import beamgeneric as bg
from beamgeneric import (
    IntegratorConfig,
    direct_rhs,
    fd_gradient,
    generic_rhs,
    grad_energy,
    grad_entropy,
    integrate,
    jacobi_check,
    transform_check,
    uniform_scaling,
    verify_brackets,
)
from conftest import ALL_IDS, DAMPED_IDS, needs_scipy, rel_inf

T_END = 10.0
DESK_DT = 1e-3
DECAY_IDS = (
    bg.ModelId.TIMOSHENKO_FRICTIONAL,
    bg.ModelId.TIMOSHENKO_HEAT_I,
    bg.ModelId.BRESSE_FRICTIONAL,
    bg.ModelId.BRESSE_HEAT_I,
)


def desk_config(model) -> IntegratorConfig:
    dt = min(DESK_DT, model.dt_bound)
    steps = int(math.ceil(T_END / dt))
    return IntegratorConfig(dt=dt, t_end=T_END, record_every=max(1, steps // 200))


@pytest.fixture(scope="module")
def trajectories(models64):
    cache = {}

    def run(mid):
        if mid not in cache:
            model = models64[mid]
            z0 = bg.default_initial_state(mid, model.grid)
            cache[mid] = integrate(model, z0, desk_config(model))
        return cache[mid]

    return run


def _report(line):
    print(line)


def test_criterion_1_degeneracy(models64):
    """L dS = 0 and M dE = 0 on seeded random states, all models."""
    worst = 0.0
    for mid in ALL_IDS:
        model = models64[mid]
        rng = np.random.default_rng(1000 + list(ALL_IDS).index(mid))
        for _ in range(20):
            z = bg.random_state(model, rng)
            ds = grad_entropy(model, z)
            res = np.max(np.abs(bg.apply_L(model, z, ds).flat))
            res /= max(1.0, np.max(np.abs(ds.flat)))
            worst = max(worst, res)
            assert res <= 1e-12, f"{mid}: |L dS| = {res:.3e}"
            de = grad_energy(model, z)
            res = np.max(np.abs(bg.apply_M(model, z, de).flat))
            res /= max(1.0, np.max(np.abs(de.flat)))
            worst = max(worst, res)
            assert res <= 1e-12, f"{mid}: |M dE| = {res:.3e}"
    _report(f"ACCEPTANCE 1 degeneracy: max residual {worst:.3e} <= 1e-12  PASS")


def test_criterion_2_bracket_axioms(models64):
    """Antisymmetry, symmetry, positive semidefiniteness; 20 trials per model."""
    worst = 0.0
    for mid in ALL_IDS:
        report = verify_brackets(models64[mid], trials=20, seed=2024)
        assert report.all_passed, f"{mid}: {report}"
        worst = max(worst, max(c.max_residual for c in report.checks))
    _report(f"ACCEPTANCE 2 bracket axioms: max residual {worst:.3e} <= 1e-12  PASS")


def test_criterion_3_rhs_equivalence(models64):
    """Assembled L dE + M dS reproduces the direct PDE transcription."""
    worst = 0.0
    for mid in ALL_IDS:
        model = models64[mid]
        rng = np.random.default_rng(3000 + list(ALL_IDS).index(mid))
        for _ in range(20):
            z = bg.random_state(model, rng)
            res = rel_inf(generic_rhs(model, z).flat, direct_rhs(model, z).flat)
            worst = max(worst, res)
            assert res <= 1e-12, f"{mid}: rhs mismatch {res:.3e}"
    _report(f"ACCEPTANCE 3 rhs equivalence: max residual {worst:.3e} <= 1e-12  PASS")


def test_criterion_4_gradient_oracle(models64):
    """Closed-form gradients against the finite-difference oracle."""
    worst = 0.0
    for mid in ALL_IDS:
        model = models64[mid]
        rng = np.random.default_rng(4000 + list(ALL_IDS).index(mid))
        for _ in range(20):
            z = bg.random_state(model, rng)
            for value_fn, grad_fn in (
                (bg.energy, grad_energy),
                (bg.entropy, grad_entropy),
            ):
                analytic = grad_fn(model, z).flat
                numeric = fd_gradient(lambda s: value_fn(model, s), z).flat
                err = float(np.max(np.abs(analytic - numeric)))
                err /= 1.0 + float(np.max(np.abs(analytic)))
                worst = max(worst, err)
                assert err <= 1e-6, f"{mid} {value_fn.__name__}: {err:.3e}"
    _report(f"ACCEPTANCE 4 gradient oracle: max relative error {worst:.3e} <= 1e-6  PASS")


@needs_scipy
def test_criterion_5_energy_conservation(models64, trajectories):
    """Total energy drift <= 1e-6 relative over T=10 for every model;
    undamped baselines also conserve the mechanical part."""
    worst = 0.0
    for mid in ALL_IDS:
        records = trajectories(mid)
        e0 = records[0].energy
        drift = max(abs(r.energy - e0) for r in records) / max(abs(e0), 1e-30)
        worst = max(worst, drift)
        assert drift <= 1e-6, f"{mid}: energy drift {drift:.3e}"
        if mid in (bg.ModelId.TIMOSHENKO_UNDAMPED, bg.ModelId.BRESSE_UNDAMPED):
            m0 = records[0].mech_energy
            mdrift = max(abs(r.mech_energy - m0) for r in records) / max(abs(m0), 1e-30)
            worst = max(worst, mdrift)
            assert mdrift <= 1e-6, f"{mid}: mechanical drift {mdrift:.3e}"
    _report(f"ACCEPTANCE 5 first law: max drift {worst:.3e} <= 1e-6  PASS")


@needs_scipy
def test_criterion_6_entropy_monotone(models64, trajectories):
    """Entropy samples nondecreasing (1e-12 per-step slack) on damped models."""
    for mid in DAMPED_IDS:
        records = trajectories(mid)
        cfg = desk_config(models64[mid])
        slack = 1e-12 * cfg.record_every
        entropy = [r.entropy for r in records]
        for a, b in zip(entropy, entropy[1:]):
            assert b >= a - slack * max(1.0, abs(a)), f"{mid}: entropy decreased"
    _report("ACCEPTANCE 6 second law: entropy nondecreasing on all damped models  PASS")


def test_criterion_7_jacobi(models64):
    """Jacobi residuals at roundoff for all ten models, the state-dependent
    L of TimoshenkoNew included: each term of the check is exact for the
    catalog's brackets, even at a large step."""
    worst = 0.0
    for mid in ALL_IDS:
        model = models64[mid]
        rng = np.random.default_rng(7000 + list(ALL_IDS).index(mid))
        for _ in range(3):
            z = bg.random_state(model, rng)
            fs = [bg.random_test_functional(model.layout, rng) for _ in range(3)]
            residual, scale = jacobi_check(model, z, *fs, h=0.1)
            worst = max(worst, residual / scale)
            assert residual <= 1e-12 * scale, f"{mid}: jacobi {residual:.3e} vs {scale:.3e}"
    _report(f"ACCEPTANCE 7 jacobi: all ten models {worst:.3e} <= 1e-12  PASS")


def test_criterion_8_transform_invariance(models64):
    """Doubling every coordinate and transforming the building blocks leaves
    the trajectory invariant."""
    model = models64[bg.ModelId.TIMOSHENKO_FRICTIONAL]
    z0 = bg.default_initial_state(model.id, model.grid)
    cfg = IntegratorConfig(dt=DESK_DT, t_end=1.0, record_every=50)
    mismatch = transform_check(model, uniform_scaling(model.layout, 2.0), z0, cfg)
    assert mismatch <= 1e-8, f"transform mismatch {mismatch:.3e}"
    _report(f"ACCEPTANCE 8 transform invariance: mismatch {mismatch:.3e} <= 1e-8  PASS")


def test_criterion_9_exponential_decay(models64, trajectories):
    """Fitted log-energy slope strictly negative for the four damped baselines."""
    rates = {}
    for mid in DECAY_IDS:
        rate = bg.decay_rate(trajectories(mid))
        rates[mid.value] = rate
        assert rate < 0.0, f"{mid}: fitted rate {rate:.3e} not negative"
    pretty = ", ".join(f"{name} {rate:.3e}" for name, rate in rates.items())
    _report(f"ACCEPTANCE 9 qualitative decay: {pretty}  PASS")


@needs_scipy
def test_criterion_10_cattaneo_elimination(models64):
    """The hyperbolic heat pair composes to the damped second-order
    temperature equation along a trajectory sample."""
    model = models64[bg.ModelId.TIMOSHENKO_HEAT_II]
    grid = model.grid
    z = bg.default_initial_state(model.id, grid)
    dt = min(DESK_DT, model.dt_bound)
    for _ in range(500):
        z = bg.step_rk4(model, z, dt)
    beta, gamma = model.params.beta, model.params.gamma
    zdot = generic_rhs(model, z)
    theta_tt = -grid.d1(zdot.field("s")) - gamma * grid.d1(zdot.field("q"))
    composed = (
        grid.d1(grid.d1(z.field("theta")))
        - beta * zdot.field("theta")
        - beta * gamma * grid.d1(z.field("q"))
        - gamma * grid.d1(zdot.field("q"))
    )
    err = float(np.max(np.abs(theta_tt - composed))) / max(1.0, float(np.max(np.abs(theta_tt))))
    assert err <= 1e-6, f"elimination mismatch {err:.3e}"
    _report(f"ACCEPTANCE 10 hyperbolic-heat elimination: relative error {err:.3e} <= 1e-6  PASS")
