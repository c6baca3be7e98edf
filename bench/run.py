#!/usr/bin/env python3
"""Benchmark of the beamgeneric library, timed from outside its public API.

    python3 bench/run.py --workload desk_sweep --seed 1 --seconds 20 --trace 0

Runs one workload (``desk_sweep``, ``scale512`` or ``verify_suite``, see
``workloads.py``) from the source tree next to this directory, for about
``--seconds`` seconds of whole iterations (at least one), checking every
output.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it repeats traced units of work (one workload iteration plus
the layer probe of ``probes.py``) and reports the per-layer metrics, the
self time of each layer and the tracing overhead, and writes the spans to
``.bench_out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer, self_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("desk_sweep", "scale512", "verify_suite")
#: One BLAS thread: the run is then a single thread, whose speed the
#: reference kernel tracks, and no BLAS thread spins waiting for a core that
#: a neighbour on a shared machine holds (with two threads, a concurrent
#: process tripled the n=512 eigensolve).
BLAS_THREADS = "1"
MACHINE_NOTE = "shared 2-core sandbox, no pinning"

#: layer spans whose self time per traced unit is a per-layer metric
LAYER_SPANS = (
    "catalog.build_model",
    "catalog.default_initial_state",
    "engine.compile_rhs",
    "engine.dt_bound",
    "engine.decay_rate",
    "cli.write_csv",
    "cli.cmd_verify",
    "engine.jacobi_check",
    "functionals.fd_gradient",
)
#: layer spans whose resident-set growth is a per-layer metric
RSS_SPANS = ("engine.compile_rhs", "engine.dt_bound")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import beamgeneric from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import beamgeneric
    except ImportError as exc:
        raise SystemExit(f"error: cannot import beamgeneric from {SRC}: {exc}")
    if Path(beamgeneric.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: beamgeneric was imported from {beamgeneric.__file__}, not {SRC}")
    return beamgeneric


def blas_threads() -> str:
    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*.so"))
    for lib in libs:
        try:
            return str(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            pass
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": MACHINE_NOTE,
    }


def warm_up(bg):
    """One untimed simulate sequence: the first eigensolve in a process pays
    for BLAS start-up, and the first integrate for lazy imports."""
    model = bg.build_model(bg.ModelId.TIMOSHENKO_FRICTIONAL)
    z0 = bg.default_initial_state(model.id, model.grid)
    bg.integrate(model, z0, bg.IntegratorConfig(min(1e-3, model.dt_bound), 0.05, 10))


def check_repeatable(iterations):
    """Every CSV must equal, byte for byte, the first one written for its
    operation in the run (repeats within an iteration are checked there)."""
    first = iterations[0].csv
    for it in iterations[1:]:
        for name, data in it.csv.items():
            if name in first and data != first[name]:
                it.fail(name, "CSV differs between repetitions")


def phase_total(iterations, phase: str) -> tuple[float, float]:
    """Sum over operations of the median time of ``phase`` in the run, in
    seconds at nominal machine speed and in raw seconds."""
    per_op = {}
    for it in iterations:
        for (ph, op), samples in it.samples.items():
            if ph == phase:
                per_op.setdefault(op, []).extend(samples)
    nominal = sum(statistics.median(s / slow for s, slow in xs) for xs in per_op.values())
    raw = sum(statistics.median(s for s, _ in xs) for xs in per_op.values())
    return nominal, raw


def timed_run(run, inp, out_dir, seconds, import_s):
    """Whole iterations for about ``seconds``: end-to-end metrics.

    Each operation's set-up and solve phases are timed against the reference
    kernel (``workloads.reference_seconds``) and reported in seconds at its
    nominal speed; the raw seconds are printed beside them.
    """
    iterations, walls = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        iterations.append(run(inp, Tracer(), out_dir))
        walls.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(walls) > seconds:
            break
    setup, setup_raw = phase_total(iterations, "setup")
    solve, solve_raw = phase_total(iterations, "solve")
    print(f"iteration wall times, s: {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"raw seconds: import {import_s[1]:.4f} setup {setup_raw:.4f} solve {solve_raw:.4f}")
    metrics = {
        "setup_s": (import_s[0] + setup, "s"),
        "solve_s": (solve, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return iterations, iterations, metrics


def traced_run(run, inp, out_dir, seconds):
    """Traced units (one workload iteration plus the layer probe) for about
    ``seconds``: per-layer metrics.

    Before each traced unit the probe also runs untraced; the probe holds
    nearly all spans, so its traced minus untraced wall time is the tracing
    overhead.
    """
    from probes import layer_probe

    tracer = Tracer(enabled=True)
    workload_its, all_its, units, overheads = [], [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        probe_it, _ = layer_probe(inp, Tracer(), out_dir)
        untraced_probe = perf_counter() - t0
        all_its.append(probe_it)

        tracer.unit = len(units)
        first_span = len(tracer.spans)
        with tracer.group("bench.unit"):
            it = run(inp, tracer, out_dir)
            probe_it, probe_metrics = layer_probe(inp, tracer, out_dir)
        workload_its.append(it)
        all_its += [it, probe_it]
        traced_probe = next(s for s in tracer.spans[first_span:] if s.name == "bench.probe")
        overheads.append(traced_probe.seconds - untraced_probe)
        units.append((first_span, len(tracer.spans), it, probe_it, probe_metrics))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(units) > seconds:
            break

    all_selfs = self_seconds(tracer.spans)
    per_unit = []
    for first, last, it, probe_it, probe_metrics in units:
        spans = tracer.spans[first:last]
        by_name, by_model, remainder = {}, {}, 0.0
        for span, own in zip(spans, all_selfs[first:last]):
            if span.name.startswith("bench."):
                remainder += own
                continue
            by_name[span.name] = by_name.get(span.name, 0.0) + own
            if span.name == "engine.integrate":
                by_model[span.tag] = by_model.get(span.tag, 0.0) + own
        wall = spans[0].seconds
        layer_total = sum(by_name.values())
        if abs(layer_total + remainder - wall) > 1e-9 * max(1.0, wall):
            raise RuntimeError("layer self times and remainder do not add up to the traced wall time")
        m = {f"{name}_s": (by_name.get(name, 0.0), "s") for name in LAYER_SPANS}
        for name in RSS_SPANS:
            m[f"{name}_rss_mb"] = (max(s.rss_mb for s in spans if s.name == name), "MB")
        for model, seconds_ in sorted(by_model.items()):
            m[f"engine.integrate_s.{model}"] = (seconds_, "s")
        m.update(probe_metrics)
        m["engine.steps"] = (it.steps + probe_it.steps, "count")
        m["engine.records"] = (it.records + probe_it.records, "count")
        m["trace.wall_s"] = (wall, "s")
        m["trace.remainder_s"] = (remainder, "s")
        m["trace.spans"] = (len(spans), "count")
        per_unit.append((m, by_name))

    metrics = {}
    for key, (_, unit) in per_unit[0][0].items():
        metrics[key] = (statistics.median(m[key][0] for m, _ in per_unit), unit)
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    metrics["engine.energy_drift_max"] = (max(it.drift_max for it in all_its), "ratio")

    print(f"self time per traced unit (median of {len(per_unit)}), s:")
    names = sorted({name for _, by_name in per_unit for name in by_name})
    for name in names:
        print(f"  {name:34s} {statistics.median(b.get(name, 0.0) for _, b in per_unit):.6f}")
    print(f"  {'remainder (benchmark code)':34s} {metrics['trace.remainder_s'][0]:.6f}")
    print(f"  {'traced wall':34s} {metrics['trace.wall_s'][0]:.6f}")

    trace_path = out_dir / "spans.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump([[s.name, s.start, s.end, s.parent, s.unit, s.tag, s.rss_mb] for s in tracer.spans], fh)
    print(f"spans: {trace_path} (name, start, end, parent, unit, model, rss_mb)")
    return workload_its, all_its, metrics


def benchmark(workload: str, seed: int, seconds: float, trace: int, sizes, out_dir: Path,
              import_s: tuple = (0.0, 0.0)) -> dict:
    """Measure one workload; print the human-readable lines and return the result.

    ``import_s`` is the time the process took to import the library, at
    nominal machine speed and raw; it counts as set-up.
    """
    from workloads import WORKLOADS, make_inputs

    inp = make_inputs(seed, sizes)
    out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        workload_its, all_its, metrics = traced_run(WORKLOADS[workload], inp, out_dir, seconds)
    else:
        workload_its, all_its, metrics = timed_run(WORKLOADS[workload], inp, out_dir, seconds, import_s)
    check_repeatable(workload_its)

    attempted = sum(it.attempted for it in all_its)
    failures = [(op, reason) for it in all_its for op, reason in it.failures.items()]
    for op, reason in failures:
        print(f"FAILED {op}: {reason}", file=sys.stderr)
    failed_frac = len(failures) / attempted
    if trace:
        metrics["failed_frac"] = (failed_frac, "fraction")
    print(f"iterations {len(workload_its)} attempted {attempted} failed {len(failures)} "
          f"failed_frac {failed_frac:g}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", BLAS_THREADS)
    t0 = perf_counter()
    bg = import_library()
    import_raw = perf_counter() - t0
    from workloads import FULL, REFERENCE_S, reference_seconds

    slowness = statistics.median(reference_seconds() for _ in range(5)) / REFERENCE_S
    import_s = (import_raw / slowness, import_raw)

    for key, value in environment().items():
        print(f"env {key} {value}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    warm_up(bg)
    result = benchmark(args.workload, args.seed, args.seconds, args.trace, FULL,
                       OUT / f"{args.workload}-{args.seed}", import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
