"""The benchmark's workloads and the checks on their outputs.

* ``desk_sweep``: every catalog model at n=64 with unit parameters, driven
  the way ``simulate`` and ``decay`` drive it.  Stepping and diagnostics
  records take most of its time.
* ``scale512``: ``BresseHeatII`` at n=512 through the same calls, for a fixed
  number of steps at the step bound.  Set-up takes most of its time: the
  dense probe in ``compile_rhs`` is O(dim^2) and the eigensolve in
  ``dt_bound`` is O(nf^3).
* ``verify_suite``: ``cli.cmd_verify`` on every model, then the Jacobi check
  at n=32 and the finite-difference gradient oracle of the energy at n=64.
  The object-level operators run at random states, with no compile and no
  stepping.

A workload function makes one iteration of library calls, each through
``Tracer.call``, so the timed and the traced runs share one code path.  Each
operation is checked as soon as it returns; an exception or a failed check
marks it failed and the iteration goes on with the next operation.
"""

from __future__ import annotations

import functools
import io
import math
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import beamgeneric as bg
from beamgeneric import cli
from beamgeneric.engine import windowed_decay_rates

DESK_DT = 1e-3          # the CLI default step, capped at each model's bound
RECORD_EVERY = 10       # the CLI default
DRIFT_TOL = 1e-6        # first law over a run, as in the acceptance suite
ENTROPY_SLACK = 1e-12   # per step, as in the acceptance suite
RESIDUAL_TOL = 1e-12    # |L dS| and |M dE| in every diagnostics record
ORACLE_TOL = 1e-6       # gradient oracle, as in the acceptance suite
# Jacobi check (step, tolerance relative to the scale of its terms), as in
# the acceptance suite: roundoff for the constant operators, finite-difference
# noise for the state-dependent one.
JACOBI = {"constant": (1e-3, 1e-10), "nonlinear": (1e-5, 1e-4)}
SCALE_MODEL = bg.ModelId.BRESSE_HEAT_II
#: Nominal time of the reference kernel: timed phases are reported in
#: seconds on a machine where ``reference_seconds()`` returns this.
REFERENCE_S = 2e-3


@dataclass(frozen=True)
class Sizes:
    grid_n: int = 64            # desk sweep, gradient oracle, layer probe
    desk_t_end: float = 0.5
    desk_solves: int = 2        # solve phases per set-up
    scale_n: int = 512
    scale_steps: int = 250      # short solves, many of them: see reference_seconds
    scale_solves: int = 48
    verify_trials: int = 20
    jacobi_n: int = 32
    probe_calls: int = 50       # calls per median in the layer probe
    probe_steps: int = 30       # horizon of the record-cost measurement
    probe_grid_ns: tuple = (64, 512)


FULL = Sizes()
SMOKE = Sizes(grid_n=8, desk_t_end=0.1, scale_n=32, scale_steps=100, scale_solves=2,
              verify_trials=1, jacobi_n=8, probe_calls=3, probe_steps=10)


@dataclass(frozen=True)
class Inputs:
    """Everything a workload draws from the seed."""

    seed: int
    sizes: Sizes
    starts: dict        # model id -> (mode, amplitude) of the initial state
    verify_seed: int    # passed to cmd_verify
    draw_seed: int      # random states and functionals of the oracles


def make_inputs(seed: int, sizes: Sizes = FULL) -> Inputs:
    rng = np.random.default_rng(seed)
    starts = {
        mid: (int(rng.integers(1, 4)), float(rng.uniform(0.05, 0.2)))
        for mid in bg.ALL_MODEL_IDS
    }
    return Inputs(seed, sizes, starts, int(rng.integers(2**31)), int(rng.integers(2**31)))


def reference_seconds() -> float:
    """Time of a fixed kernel of small NumPy calls driven from Python, the
    mix the library's hot paths are made of.

    On a shared machine the speed of a core swings by up to 2x over seconds;
    dividing a phase's time by this kernel's time, measured just before and
    after the phase, cancels most of that swing.
    """
    u = np.linspace(0.0, 1.0, 64)
    t0 = perf_counter()
    for _ in range(200):
        u = 0.5 * (np.roll(u, 1) + u)
    return perf_counter() - t0


@dataclass
class Iteration:
    #: (phase, operation) -> [(seconds, machine slowness), ...]; phase is
    #: "setup" or "solve", slowness is reference time over REFERENCE_S
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failures: dict = field(default_factory=dict)   # operation -> reason
    csv: dict = field(default_factory=dict)        # operation -> CSV bytes
    steps: int = 0
    records: int = 0
    drift_max: float = 0.0

    def fail(self, op: str, reason: str):
        self.failures.setdefault(op, reason)

    @contextmanager
    def timed(self, phase: str, op: str):
        """Time the block as one sample of ``phase`` for ``op``."""
        before = reference_seconds()
        t0 = perf_counter()
        yield
        seconds = perf_counter() - t0
        slowness = 0.5 * (before + reference_seconds()) / REFERENCE_S
        self.samples.setdefault((phase, op), []).append((seconds, slowness))

    def add_records(self, records, cfg):
        self.steps += int(math.ceil(cfg.t_end / cfg.dt - 1e-9))
        self.records += len(records)
        self.drift_max = max(self.drift_max, energy_drift(records))


def energy_drift(records) -> float:
    e0 = records[0].energy
    return max(abs(r.energy - e0) for r in records) / abs(e0)


def _check_records(model, records, cfg) -> list[str]:
    problems = []
    drift = energy_drift(records)
    if not drift <= DRIFT_TOL:
        problems.append(f"energy drift {drift:.3e} > {DRIFT_TOL:g}")
    slack = ENTROPY_SLACK * cfg.record_every
    for a, b in zip(records, records[1:]):
        if not b.entropy >= a.entropy - slack * max(1.0, abs(a.entropy)):
            problems.append(f"entropy decreased at t={b.t:g}")
            break
    res = max(max(r.res_l_ds, r.res_m_de) for r in records)
    if not res <= RESIDUAL_TOL:
        problems.append(f"degeneracy residual {res:.3e} > {RESIDUAL_TOL:g}")
    if model.id is bg.ModelId.TIMOSHENKO_NEW:
        theta_min = min(r.theta_min for r in records)
        if not theta_min > 0.0:
            problems.append(f"theta_min {theta_min:g} <= 0")
    return problems


def _simulate(it, tr, out_dir, mid, grid, start, solves, t_end=None, steps=None):
    """One simulate/decay call sequence: one operation.

    The set-up phase is build, initial state, compile and step bound.  The
    step is min(1e-3, bound) over ``t_end``, or the bound itself for a fixed
    number of ``steps``.  The solve phase (integrate, CSV, decay fits) runs
    ``solves`` times on the one set-up, and every repeat must write the same
    CSV bytes.
    """
    name = mid.value
    it.attempted += 1
    mode, amplitude = start
    path = out_dir / f"{name}.csv"
    try:
        with tr.group("bench.model", tag=name):
            with it.timed("setup", name):
                model, _ = tr.call("catalog.build_model", bg.build_model, mid, bg.ModelParams(), grid)
                z0, _ = tr.call("catalog.default_initial_state", bg.default_initial_state,
                                mid, grid, mode=mode, amplitude=amplitude)
                tr.call("engine.compile_rhs", bg.compile_rhs, model, rss=True)
                bound, _ = tr.call("engine.dt_bound", getattr, model, "dt_bound", rss=True)
            if steps is None:
                cfg = bg.IntegratorConfig(min(DESK_DT, bound), t_end, RECORD_EVERY)
            else:
                cfg = bg.IntegratorConfig(bound, steps * bound, RECORD_EVERY)
            for _ in range(solves):
                with it.timed("solve", name):
                    records, _ = tr.call("engine.integrate", bg.integrate, model, z0, cfg, tag=name)
                    tr.call("cli.write_csv", cli.write_csv, str(path), records)
                    rate = None
                    if model.damped:
                        rate, _ = tr.call("engine.decay_rate", bg.decay_rate, records)
                        tr.call("engine.windowed_decay_rates", windowed_decay_rates, records)
                it.add_records(records, cfg)
                data = path.read_bytes()
                if it.csv.setdefault(name, data) != data:
                    it.fail(name, "CSV differs between repetitions")
    except Exception:
        it.fail(name, traceback.format_exc())
        return
    problems = _check_records(model, records, cfg)
    if rate is not None and not rate < 0.0:
        problems.append(f"decay rate {rate:.3e} is not negative")
    if problems:
        it.fail(name, "; ".join(problems))


def desk_sweep(inp: Inputs, tr, out_dir: Path) -> Iteration:
    it = Iteration()
    sizes = inp.sizes
    grid = bg.Grid(sizes.grid_n, 1.0)
    for mid in bg.ALL_MODEL_IDS:
        _simulate(it, tr, out_dir, mid, grid, inp.starts[mid], sizes.desk_solves,
                  t_end=sizes.desk_t_end)
    return it


def scale512(inp: Inputs, tr, out_dir: Path) -> Iteration:
    it = Iteration()
    sizes = inp.sizes
    grid = bg.Grid(sizes.scale_n, 1.0)
    _simulate(it, tr, out_dir, SCALE_MODEL, grid, inp.starts[SCALE_MODEL], sizes.scale_solves,
              steps=sizes.scale_steps)
    return it


def _verify_lines(text: str) -> dict:
    lines = {}
    for line in text.splitlines():
        lines.setdefault(line.split()[0], []).append(line)
    return lines


def verify_suite(inp: Inputs, tr, out_dir: Path) -> Iteration:
    it = Iteration()
    sizes = inp.sizes
    rng = np.random.default_rng(inp.draw_seed)
    jacobi_grid = bg.Grid(sizes.jacobi_n, 1.0)
    oracle_grid = bg.Grid(sizes.grid_n, 1.0)

    cases = {}
    with tr.group("bench.oracle_inputs"), it.timed("setup", "oracle_inputs"):
        for mid in bg.ALL_MODEL_IDS:
            try:
                jm, _ = tr.call("catalog.build_model", bg.build_model, mid, bg.ModelParams(), jacobi_grid)
                jz, _ = tr.call("engine.random_state", bg.random_state, jm, rng)
                fs, _ = tr.call("engine.random_test_functional", random_functionals, jm.layout, rng)
                om, _ = tr.call("catalog.build_model", bg.build_model, mid, bg.ModelParams(), oracle_grid)
                oz, _ = tr.call("engine.random_state", bg.random_state, om, rng)
                cases[mid] = (jm, jz, fs, om, oz)
            except Exception:
                cases[mid] = traceback.format_exc()

    out = io.StringIO()
    try:
        with it.timed("solve", "cmd_verify"):
            code, _ = tr.call("cli.cmd_verify", cli.cmd_verify, "all",
                              sizes.verify_trials, inp.verify_seed, out=out)
        lines = _verify_lines(out.getvalue())
        verify_error = None if code == 0 else f"cmd_verify exited {code}"
    except Exception:
        lines, verify_error = {}, traceback.format_exc()

    for mid in bg.ALL_MODEL_IDS:
        name = mid.value
        it.attempted += 3
        mine = lines.get(name, [])
        if verify_error:
            it.fail(f"verify:{name}", verify_error)
        elif len(mine) != 5 or any(not line.endswith(" PASS") for line in mine):
            it.fail(f"verify:{name}", " | ".join(mine) or "no output")
        if isinstance(cases[mid], str):
            it.fail(f"jacobi:{name}", cases[mid])
            it.fail(f"oracle:{name}", cases[mid])
            continue
        jm, jz, fs, om, oz = cases[mid]
        kind = "nonlinear" if mid is bg.ModelId.TIMOSHENKO_NEW else "constant"
        h, tol = JACOBI[kind]
        try:
            with it.timed("solve", f"jacobi:{name}"):
                (residual, scale), _ = tr.call("engine.jacobi_check", bg.jacobi_check,
                                               jm, jz, *fs, h=h, tag=name)
            if not residual <= tol * scale:
                it.fail(f"jacobi:{name}", f"residual {residual:.3e} > {tol:g} * {scale:.3e}")
        except Exception:
            it.fail(f"jacobi:{name}", traceback.format_exc())
        try:
            with it.timed("solve", f"oracle:{name}"):
                numeric, _ = tr.call("functionals.fd_gradient", bg.fd_gradient,
                                     functools.partial(bg.energy, om), oz, tag=name)
                analytic, _ = tr.call("functionals.grad_energy", bg.grad_energy, om, oz)
            err = float(np.max(np.abs(analytic.flat - numeric.flat)))
            err /= 1.0 + float(np.max(np.abs(analytic.flat)))
            if not err <= ORACLE_TOL:
                it.fail(f"oracle:{name}", f"relative error {err:.3e} > {ORACLE_TOL:g}")
        except Exception:
            it.fail(f"oracle:{name}", traceback.format_exc())
    return it


def random_functionals(layout, rng):
    """Three random quadratic test functionals, as the Jacobi check takes."""
    return [bg.random_test_functional(layout, rng) for _ in range(3)]


WORKLOADS = {
    "desk_sweep": desk_sweep,
    "scale512": scale512,
    "verify_suite": verify_suite,
}
