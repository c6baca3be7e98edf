"""Layer probe of the traced run: fixed calls into every layer.

The traced run reports every per-layer metric on every workload, so each
traced unit of work is one workload iteration followed by this probe.  The
probe times single calls (the compiled right-hand side, an RK4 step, a
diagnostics record, the object-level operators and functionals, the grid
derivatives) and makes at least one call to each layer the workloads use,
so that no layer's self time reads zero.  It is the same on every workload.
"""

from __future__ import annotations

import functools
import io
import statistics
import traceback

import numpy as np

import beamgeneric as bg
from beamgeneric import cli
from beamgeneric.engine import windowed_decay_rates
from workloads import DESK_DT, JACOBI, Inputs, Iteration, random_functionals

#: models whose object-level operators and functionals are timed: the
#: largest linear model and the nonlinear one
OPERATOR_MODELS = (bg.ModelId.BRESSE_HEAT_II, bg.ModelId.TIMOSHENKO_NEW)
RECORD_PAIRS = 3


def _median_call(tr, name, calls, fn, *args) -> float:
    """Median seconds of one ``fn(*args)`` over ``calls`` calls."""
    return statistics.median(tr.call(name, fn, *args)[1] for _ in range(calls))


def _us(seconds: float) -> tuple:
    return 1e6 * seconds, "us"


def _record_cost(tr, it, model, z0, dt, steps):
    """Seconds per diagnostics record, and the densely recorded trajectory.

    Two ``integrate`` calls over the same horizon, recording every step and
    only at its ends, differ by ``steps - 1`` records; the median over a few
    pairs of their time difference per record is the cost of one record.
    """
    dense = bg.IntegratorConfig(dt, steps * dt, 1)
    sparse = bg.IntegratorConfig(dt, steps * dt, steps)
    costs = []
    for _ in range(RECORD_PAIRS):
        many, t_many = tr.call("engine.integrate", bg.integrate, model, z0, dense, tag=model.id.value)
        few, t_few = tr.call("engine.integrate", bg.integrate, model, z0, sparse, tag=model.id.value)
        it.add_records(many, dense)
        it.add_records(few, sparse)
        costs.append((t_many - t_few) / (len(many) - len(few)))
    return statistics.median(costs), many


def layer_probe(inp: Inputs, tr, out_dir) -> tuple[Iteration, dict]:
    """Run the probe as one operation; return it and the per-call metrics
    as ``{name: (value, unit)}``."""
    it = Iteration(attempted=1)
    metrics = {}
    try:
        with tr.group("bench.probe"):
            _probe(inp, tr, out_dir, it, metrics)
    except Exception:
        it.fail("probe", traceback.format_exc())
    return it, metrics


def _probe(inp, tr, out_dir, it, metrics):
    sizes = inp.sizes
    calls = sizes.probe_calls
    rng = np.random.default_rng(inp.draw_seed)
    grid = bg.Grid(sizes.grid_n, 1.0)
    models = {}
    for mid in bg.ALL_MODEL_IDS:
        name = mid.value
        mode, amplitude = inp.starts[mid]
        with tr.group("bench.probe.model", tag=name):
            model, _ = tr.call("catalog.build_model", bg.build_model, mid, bg.ModelParams(), grid)
            z0, _ = tr.call("catalog.default_initial_state", bg.default_initial_state,
                            mid, grid, mode=mode, amplitude=amplitude)
            rhs, _ = tr.call("engine.compile_rhs", bg.compile_rhs, model, rss=True)
            bound, _ = tr.call("engine.dt_bound", getattr, model, "dt_bound", rss=True)
            dt = min(DESK_DT, bound)
            metrics[f"engine.rhs_us.{name}"] = _us(_median_call(tr, "engine.rhs", calls, rhs, z0.flat))
            metrics[f"engine.step_rk4_us.{name}"] = _us(_median_call(
                tr, "engine.step_rk4", calls, bg.step_rk4, model, z0, dt))
            cost, records = _record_cost(tr, it, model, z0, dt, sizes.probe_steps)
            metrics[f"engine.record_ms.{name}"] = (1e3 * cost, "ms")
            tr.call("cli.write_csv", cli.write_csv, str(out_dir / f"probe-{name}.csv"), records)
            if model.damped:
                tr.call("engine.decay_rate", bg.decay_rate, records)
                tr.call("engine.windowed_decay_rates", windowed_decay_rates, records)
        models[mid] = model

    for mid in OPERATOR_MODELS:
        model = models[mid]
        with tr.group("bench.probe.operators", tag=mid.value):
            z, _ = tr.call("engine.random_state", bg.random_state, model, rng)
            xi, _ = tr.call("engine.random_cotangent", bg.random_cotangent, model.layout, rng)
            for metric, fn, args in (
                ("operators.apply_L", bg.apply_L, (model, z, xi)),
                ("operators.apply_M", bg.apply_M, (model, z, xi)),
                ("functionals.grad_energy", bg.grad_energy, (model, z)),
                ("functionals.grad_entropy", bg.grad_entropy, (model, z)),
                ("functionals.energy", bg.energy, (model, z)),
                ("engine.generic_rhs", bg.generic_rhs, (model, z)),
                ("engine.direct_rhs", bg.direct_rhs, (model, z)),
            ):
                metrics[f"{metric}_us.{mid.value}"] = _us(_median_call(tr, metric, calls, fn, *args))

    with tr.group("bench.probe.grid"):
        for n in sizes.probe_grid_ns:
            g = bg.Grid(n, 1.0)
            u = rng.standard_normal(n)
            metrics[f"grid.d1_us.n{n}"] = _us(_median_call(tr, "grid.d1", calls * 4, g.d1, u))
            metrics[f"grid.d2_us.n{n}"] = _us(_median_call(tr, "grid.d2", calls * 4, g.d2, u))

    # One call into each verification layer.
    mid = OPERATOR_MODELS[0]
    with tr.group("bench.probe.verify", tag=mid.value):
        tr.call("cli.cmd_verify", cli.cmd_verify, mid.value, 1, inp.verify_seed, out=io.StringIO())
        jm, _ = tr.call("catalog.build_model", bg.build_model, mid, bg.ModelParams(),
                        bg.Grid(sizes.jacobi_n, 1.0))
        jz, _ = tr.call("engine.random_state", bg.random_state, jm, rng)
        fs, _ = tr.call("engine.random_test_functional", random_functionals, jm.layout, rng)
        tr.call("engine.jacobi_check", bg.jacobi_check, jm, jz, *fs, h=JACOBI["constant"][0], tag=mid.value)
        model = models[mid]
        z, _ = tr.call("engine.random_state", bg.random_state, model, rng)
        tr.call("functionals.fd_gradient", bg.fd_gradient, functools.partial(bg.energy, model), z,
                tag=mid.value)
