"""The object-level layer on stacks of states: every operation on a stack
must give, row by row, what it gives on each state alone."""

import math

import numpy as np
import pytest

import beamgeneric as bg
import beamgeneric.engine as engine
from beamgeneric import (
    CotangentVector,
    State,
    apply_L,
    apply_M,
    energy,
    entropy,
    fd_gradient,
    grad_energy,
    grad_entropy,
    mixed_inner,
    poisson_bracket,
)
from beamgeneric.state import STACK_BYTES
from conftest import ALL_IDS, rel_inf

ROWS = 4


def _draws(model, rng, rows=ROWS):
    """``rows`` random states and covectors, alone and as stacks."""
    zs = [bg.random_state(model, rng) for _ in range(rows)]
    xis = [bg.random_cotangent(model.layout, rng) for _ in range(rows)]
    z = State._stack(model.layout, np.array([s.flat for s in zs]))
    xi = CotangentVector._stack(model.layout, np.array([c.flat for c in xis]))
    return zs, xis, z, xi


@pytest.mark.parametrize("mid", ALL_IDS, ids=str)
def test_stack_equals_row_by_row(models32, mid):
    model = models32[mid]
    rng = np.random.default_rng(list(ALL_IDS).index(mid))
    zs, xis, z, xi = _draws(model, rng)
    fs = [bg.random_test_functional(model.layout, rng) for _ in range(2)]
    scalars = {
        "energy": (energy(model, z), [energy(model, s) for s in zs]),
        "entropy": (entropy(model, z), [entropy(model, s) for s in zs]),
        "poisson_bracket": (poisson_bracket(model, z, *fs),
                            [poisson_bracket(model, s, *fs) for s in zs]),
    }
    for name, (stacked, rows) in scalars.items():
        assert stacked.shape == (ROWS,), name
        assert all(isinstance(r, float) for r in rows), name
        assert rel_inf(stacked, rows) <= 1e-15, name
    vectors = {
        "grad_energy": (grad_energy(model, z), [grad_energy(model, s) for s in zs]),
        "grad_entropy": (grad_entropy(model, z), [grad_entropy(model, s) for s in zs]),
        "apply_L": (apply_L(model, z, xi), [apply_L(model, s, c) for s, c in zip(zs, xis)]),
        "apply_M": (apply_M(model, z, xi), [apply_M(model, s, c) for s, c in zip(zs, xis)]),
    }
    for name, (stacked, rows) in vectors.items():
        assert stacked.flat.shape == (ROWS, model.layout.flat_dim), name
        assert rel_inf(stacked.flat, [r.flat for r in rows]) <= 1e-15, name


def test_stack_with_two_leading_axes(models32):
    model = models32[bg.ModelId.TIMOSHENKO_NEW]
    rng = np.random.default_rng(11)
    zs, xis, z, xi = _draws(model, rng)
    dim = model.layout.flat_dim
    z2 = State._stack(model.layout, z.flat.reshape(2, 2, dim))
    xi2 = CotangentVector._stack(model.layout, xi.flat.reshape(2, 2, dim))
    assert rel_inf(energy(model, z2).ravel(), energy(model, z)) == 0.0
    assert rel_inf(apply_M(model, z2, xi2).flat.reshape(ROWS, dim), apply_M(model, z, xi).flat) == 0.0
    assert rel_inf(mixed_inner(model.layout, z2.flat, xi2.flat).ravel(),
                   [mixed_inner(model.layout, s.flat, c.flat) for s, c in zip(zs, xis)]) == 0.0


def test_operators_broadcast_one_state_over_a_stack_of_covectors(models32):
    model = models32[bg.ModelId.BRESSE_HEAT_II]
    rng = np.random.default_rng(12)
    zs, xis, _, xi = _draws(model, rng)
    got = apply_M(model, zs[0], xi).flat
    assert rel_inf(got, [apply_M(model, zs[0], c).flat for c in xis]) <= 1e-15


def _slot_by_slot(f, z, rel_step=1e-6):
    """Central difference one slot at a time, calling f on single states."""
    flat = z.flat
    out = np.empty_like(flat)
    for i in range(flat.size):
        h = rel_step * (1.0 + abs(flat[i]))
        zp, zm = flat.copy(), flat.copy()
        zp[i] += h
        zm[i] -= h
        out[i] = (f(State(z.layout, zp)) - f(State(z.layout, zm))) / (2.0 * h)
    nf = z.layout.grid.n * z.layout.n_fields
    out[:nf] /= z.layout.grid.dx
    return out


@pytest.mark.parametrize("mid", ALL_IDS, ids=str)
def test_fd_gradient_equals_slot_by_slot_difference(models32, mid):
    model = models32[mid]
    rng = np.random.default_rng(100 + list(ALL_IDS).index(mid))
    z = bg.random_state(model, rng)
    fs = [bg.random_test_functional(model.layout, rng) for _ in range(2)]
    for f in (lambda s: energy(model, s), lambda s: entropy(model, s),
              lambda s: poisson_bracket(model, s, *fs)):
        got = fd_gradient(f, z).flat
        want = _slot_by_slot(f, z)
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


def test_fd_gradient_calls_f_on_bounded_stacks(models64):
    # the blocks share one probe buffer: each must still show f exactly
    # z + h e_i on its first k rows and z - h e_i on the next k, leave z as
    # it was, and give bitwise what one slot at a time gives
    model = models64[bg.ModelId.BRESSE_HEAT_II]
    z = bg.random_state(model, np.random.default_rng(13))
    dim = model.layout.flat_dim
    before = z.flat.copy()
    steps = 1e-6 * (1.0 + np.abs(before))
    shapes = []

    def f(s):
        k, done = s.flat.shape[0] // 2, sum(shape[0] // 2 for shape in shapes)
        slots = np.arange(done, done + k)
        want = np.tile(before, (2 * k, 1))
        want[np.arange(k), slots] += steps[slots]
        want[np.arange(k, 2 * k), slots] -= steps[slots]
        assert s.flat.tobytes() == want.tobytes(), f"block at slot {done}"
        shapes.append(s.flat.shape)
        return energy(model, s)

    got = fd_gradient(f, z).flat
    rows = [shape[0] for shape in shapes]
    assert all(len(shape) == 2 and shape[1] == dim for shape in shapes)
    assert all(r % 2 == 0 and r * dim * 8 <= STACK_BYTES for r in rows)
    assert sum(rows) == 2 * dim
    assert len(shapes) == math.ceil(dim / (rows[0] // 2))
    assert z.flat.tobytes() == before.tobytes()
    assert got.tobytes() == _slot_by_slot(lambda s: energy(model, s), z).tobytes()


@pytest.mark.parametrize("n", (64, 2048))
def test_jacobi_check_brackets_on_bounded_stacks(monkeypatch, n):
    # two stack passes: the three directions L(z) dH(z) from one stack of
    # covectors at z, then the twelve probes (four per term) as one stack of
    # states; each is split where BresseHeatII's layout exceeds STACK_BYTES
    # (n = 2048), and the split does not move the result
    model = bg.build_model("BresseHeatII", bg.ModelParams(), bg.Grid(n, 1.0))
    rng = np.random.default_rng(15)
    z = bg.random_state(model, rng)
    fs = [bg.random_test_functional(model.layout, rng) for _ in range(3)]
    dim = model.layout.flat_dim
    real = engine.apply_L
    calls = []

    def counted(model, s, xi):
        calls.append((s.flat.shape, xi.flat.shape))
        return real(model, s, xi)

    monkeypatch.setattr(engine, "apply_L", counted)
    got = bg.jacobi_check(model, z, *fs, h=0.1)
    directions = [xi[0] for s, xi in calls if s == (dim,)]
    probes = [s[0] for s, xi in calls if s != (dim,)]
    assert all(len(xi) == 2 and xi[1] == dim for _, xi in calls)
    assert all(s == xi for s, xi in calls if s != (dim,))
    assert all(r * dim * 8 <= STACK_BYTES or r == 1 for r in directions + probes)
    assert sum(directions) == 3 and sum(probes) == 3 * 4
    assert calls[:len(directions)] == [((dim,), (r, dim)) for r in directions]
    assert (len(calls) == 2) == (3 * 4 * dim * 8 <= STACK_BYTES)
    # one row per stack, and five, which puts a term's probes in two stacks
    for rows in (1, 5):
        monkeypatch.setattr(engine, "stack_rows", lambda layout: rows)
        assert bg.jacobi_check(model, z, *fs, h=0.1) == got


@pytest.mark.parametrize("reservoir", (True, False), ids=("reservoir", "no_reservoir"))
@pytest.mark.parametrize("n", (8, 33))
def test_random_test_functional_draws_as_field_by_field(n, reservoir):
    # the weights come from one uniform call, the fields' in order and then
    # the reservoir's: bitwise one call per field, as the generator fills a
    # request in order
    layout = bg.StateLayout(bg.Grid(n, 1.0), ("phi", "psi", "p", "q", "theta"), reservoir)
    got = bg.random_test_functional(layout, np.random.default_rng(n))
    rng = np.random.default_rng(n)
    diag = np.empty(layout.flat_dim)
    for i in range(layout.n_fields):
        diag[i * n:(i + 1) * n] = rng.uniform(0.5, 1.5)
    if reservoir:
        diag[layout.reservoir_index] = rng.uniform(0.5, 1.5)
    z0 = 0.3 * rng.standard_normal(layout.flat_dim)
    c = 0.3 * rng.standard_normal(layout.flat_dim)
    assert got.diag.tobytes() == diag.tobytes()
    assert got.z0.flat.tobytes() == z0.tobytes()
    assert got.c.flat.tobytes() == c.tobytes()


def test_fd_gradient_rejects_one_scalar_for_a_stack(models32):
    model = models32[bg.ModelId.TIMOSHENKO_FRICTIONAL]
    z = bg.random_state(model, np.random.default_rng(14))
    with pytest.raises(ValueError, match="one value per state"):
        fd_gradient(lambda s: float(np.sum(s.flat ** 2)), z)


def _trial_residuals(model, z, xi, eta):
    """The five bracket residuals of one trial, from single states."""
    layout = model.layout

    def sup(v):
        return float(np.max(np.abs(v.flat)))

    b1 = mixed_inner(layout, xi.flat, apply_L(model, z, eta).flat)
    b2 = mixed_inner(layout, eta.flat, apply_L(model, z, xi).flat)
    m_xi = apply_M(model, z, xi).flat
    s1 = mixed_inner(layout, xi.flat, apply_M(model, z, eta).flat)
    s2 = mixed_inner(layout, eta.flat, m_xi)
    quad = mixed_inner(layout, xi.flat, m_xi)
    ds, de = grad_entropy(model, z), grad_energy(model, z)
    return {
        "antisymmetry": abs(b1 + b2) / max(1.0, abs(b1), abs(b2)),
        "symmetry": abs(s1 - s2) / max(1.0, abs(s1), abs(s2)),
        "psd": max(0.0, -quad) / max(1.0, abs(quad)),
        "degeneracy_LdS": sup(apply_L(model, z, ds)) / max(1.0, sup(ds)),
        "degeneracy_MdE": sup(apply_M(model, z, de)) / max(1.0, sup(de)),
    }


@pytest.mark.parametrize("mid", [bg.ModelId.BRESSE_HEAT_II, bg.ModelId.TIMOSHENKO_NEW], ids=str)
def test_verify_brackets_equals_trial_by_trial(models64, mid, monkeypatch):
    # enough trials to need two stacks, drawn in the same order as one at a
    # time: a stack's draws come from one generator call, which fills its
    # rows in order, so the stacks verify evaluates must hold bitwise the
    # trials that random_state, random_cotangent and random_cotangent draw in
    # turn, and the report lists the checks in the order of the trial's
    model = models64[mid]
    trials = bg.state.stack_rows(model.layout) + 3
    rng = np.random.default_rng(5)
    worst, drawn = {}, []
    for _ in range(trials):
        z = bg.random_state(model, rng)
        xi = bg.random_cotangent(model.layout, rng)
        eta = bg.random_cotangent(model.layout, rng)
        drawn.append((z.flat, xi.flat, eta.flat))
        for name, value in _trial_residuals(model, z, xi, eta).items():
            worst[name] = max(worst.get(name, 0.0), value)
    stacks = []
    real = engine._bracket_residuals

    def spy(model, z, xi, eta):
        stacks.append((z.flat.copy(), xi.flat.copy(), eta.flat.copy()))
        return real(model, z, xi, eta)

    monkeypatch.setattr(engine, "_bracket_residuals", spy)
    report = bg.verify_brackets(model, trials=trials, seed=5)
    assert len(stacks) == 2
    for got, rows in zip(zip(*stacks), zip(*drawn)):
        assert np.concatenate(got).tobytes() == np.array(rows).tobytes()
    assert [(c.name, c.max_residual) for c in report.checks] == list(worst.items())
    assert report.all_passed


def test_verify_brackets_reports_a_nan_residual(models32, monkeypatch):
    model = models32[bg.ModelId.TIMOSHENKO_FRICTIONAL]
    real = bg.engine.apply_M

    def poisoned(model, z, xi):
        out = real(model, z, xi)
        out.flat[0, 0] = np.nan
        return out

    monkeypatch.setattr(bg.engine, "apply_M", poisoned)
    report = bg.verify_brackets(model, trials=3, seed=0)
    checks = {c.name: c for c in report.checks}
    assert math.isnan(checks["symmetry"].max_residual)
    assert not report.all_passed
