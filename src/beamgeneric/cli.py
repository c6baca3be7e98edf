"""Command-line front end: simulate, verify, decay.

Config files are flat ``key = value`` text with ``#`` comments.  Exit codes:
0 success, 1 validation problem (bad config, unknown model, failed checks),
2 runtime divergence or domain error during integration.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys
import typing
from dataclasses import dataclass

from .catalog import (ALL_MODEL_IDS, MODEL_CONSTANTS, ModelId, ModelParams, build_model,
                      default_initial_state)
from .engine import (
    IntegratorConfig,
    decay_rate,
    integrate,
    mode_abscissa,
    verify_brackets,
    windowed_decay_rates,
)
from .errors import DivergenceError, DomainError
from .grid import Grid

@dataclass(frozen=True)
class RunConfig:
    model: str
    n: int = 64
    length: float = 1.0
    dt: typing.Optional[float] = None       # DEFAULT_DT, capped at the model's step bound, when unset
    t_end: float = 10.0
    record_every: int = 10
    mode: int = 1
    amplitude: float = 0.1
    output: typing.Optional[str] = None    # simulate writes DEFAULT_OUTPUT when unset
    params: ModelParams = dataclasses.field(default_factory=ModelParams)


DEFAULT_OUTPUT = "diagnostics.csv"
#: the step of a run that sets no ``dt``, unless the model's step bound is
#: smaller, in which case the bound is the step
DEFAULT_DT = 1e-3

_PARAM_KEYS = tuple(f.name for f in dataclasses.fields(ModelParams))

#: every config key, with the type its value is parsed as: the run's own
#: keys, then the model constants
_KEY_TYPES = {
    **{key: kind for key, kind in typing.get_type_hints(RunConfig).items() if key != "params"},
    "dt": float,      # RunConfig's None means the key was not set
    "output": str,    # a path; likewise
    **{key: float for key in _PARAM_KEYS},
}


def parse_config_text(text: str) -> RunConfig:
    """Parse ``key = value`` lines; an empty key is rejected at its line and
    unknown keys by name (``repr``, so any name stays visible).  Once every
    value has parsed, a model constant that the model does not read
    (``catalog.MODEL_CONSTANTS``) is rejected, naming the model and each
    such constant."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValueError(f"line {lineno}: empty key in {line!r}")
        if key in raw:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    unknown = sorted(set(raw) - set(_KEY_TYPES))
    if unknown:
        raise ValueError("unknown config key(s): " + ", ".join(map(repr, unknown)))
    if "model" not in raw:
        raise ValueError("config must set 'model'")

    values = {}
    for key, kind in _KEY_TYPES.items():
        if key in raw:
            try:
                values[key] = kind(raw[key])
            except ValueError:
                raise ValueError(f"config key {key!r}: cannot parse {raw[key]!r} as {kind.__name__}") from None
    params = {key: value for key, value in values.items() if key in _PARAM_KEYS}
    if params:
        mid = _resolve_model_id(values["model"])
        unread = [key for key in params if key not in MODEL_CONSTANTS[mid]]
        if unread:
            raise ValueError(f"{mid} does not read the constant(s) " + ", ".join(map(repr, unread)))
    run = {key: value for key, value in values.items() if key not in _PARAM_KEYS}
    return RunConfig(params=ModelParams(**params), **run)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _resolve_model_id(name: str) -> ModelId:
    try:
        return ModelId(name)
    except ValueError:
        known = ", ".join(m.value for m in ALL_MODEL_IDS)
        raise ValueError(f"unknown model {name!r}; known models: {known}") from None


def _setup_run(config: RunConfig):
    mid = _resolve_model_id(config.model)
    grid = Grid(config.n, config.length)
    model = build_model(mid, config.params, grid)
    z0 = default_initial_state(mid, grid, mode=config.mode, amplitude=config.amplitude)
    dt = min(DEFAULT_DT, model.dt_bound) if config.dt is None else config.dt
    cfg = IntegratorConfig(dt=dt, t_end=config.t_end, record_every=config.record_every)
    return model, z0, cfg


CSV_HEADER = "t,energy,entropy,mech_energy,res_LdS,res_MdE,theta_min"
#: one CSV line of a record, whose fields are in the header's order
_CSV_ROW = ",".join(["%.17g"] * 7) + "\n"
#: records formatted per write in :func:`write_csv`
_CSV_CHUNK = 4096


def write_csv(path: str, records):
    """Write the header and one ``_CSV_ROW`` line per record to ``path``.

    The file is truncated on open.  Rows are formatted ``_CSV_CHUNK`` records
    to one ``%`` call, which keeps the text held at once bounded however
    long the run.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for start in range(0, len(records), _CSV_CHUNK):
            chunk = records[start:start + _CSV_CHUNK]
            fh.write((_CSV_ROW * len(chunk)) % tuple(itertools.chain.from_iterable(chunk)))


def cmd_simulate(config: RunConfig, out=None) -> int:
    out = sys.stdout if out is None else out
    output = DEFAULT_OUTPUT if config.output is None else config.output
    # a bad output path fails here, not after the whole run
    directory = os.path.dirname(os.path.abspath(output))
    if os.path.isdir(output) or not os.path.isdir(directory):
        raise ValueError(
            f"config key 'output': {output!r} is not a file in an existing directory"
        )
    model, z0, cfg = _setup_run(config)
    records = integrate(model, z0, cfg)
    write_csv(output, records)
    print(f"{model.id} wrote {len(records)} records to {output}", file=out)
    return 0


def cmd_verify(model_name: str, trials: int, seed: int, out=None) -> int:
    out = sys.stdout if out is None else out
    if model_name == "all":
        mids = ALL_MODEL_IDS
    else:
        mids = (_resolve_model_id(model_name),)
    all_passed = True
    for mid in mids:
        model = build_model(mid)
        report = verify_brackets(model, trials=trials, seed=seed)
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print(
                f"{report.model_id} {check.name} {check.max_residual:.3e} "
                f"{check.tolerance:.1e} {status}",
                file=out,
            )
        all_passed = all_passed and report.all_passed
    return 0 if all_passed else 1


#: ``mode_abscissa`` at or above ``-UNDAMPED_MODE_TOLERANCE`` counts as an
#: undamped initial mode.  At n = 64..512, unit constants and b = 2, the
#: eigensolver leaves at most 8.5e-13 on bins with no damping (8.5e-17 at
#: the Nyquist bin of an even n), and the weakest true damping in any bin is
#: -9.4e-7; 1e-10 sits two decades above the one and four below the other.
UNDAMPED_MODE_TOLERANCE = 1e-10


def cmd_decay(config: RunConfig, out=None) -> int:
    out = sys.stdout if out is None else out
    if config.output is not None:
        raise ValueError(f"config key 'output': decay writes no file, got {config.output!r}")
    model, z0, cfg = _setup_run(config)
    records = integrate(model, z0, cfg)
    rate = decay_rate(records)
    window_rates = windowed_decay_rates(records)
    # warn only about a run that has been accepted, run and fitted
    if not model.damped:
        print(f"warning: {model.id} is undamped; expecting a rate near zero", file=out)
    elif (abscissa := mode_abscissa(model, config.mode)) >= -UNDAMPED_MODE_TOLERANCE:
        print(
            f"warning: {model.id} does not damp mode {config.mode} on n = {config.n} "
            f"(largest Re(lambda) {abscissa:.1e}); expecting a rate near zero",
            file=out,
        )
    negative = sum(1 for r in window_rates if r < 0.0)
    confidence = negative / len(window_rates)
    print(
        f"{model.id} decay_rate {rate:.6e} confidence {confidence:.2f} "
        f"({negative}/{len(window_rates)} windows negative)",
        file=out,
    )
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this CLI reserves 2 for
    # runtime divergence, so remap usage problems to validation errors.
    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="beamgeneric", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate a model and write CSV diagnostics")
    p_sim.add_argument("--config", required=True, help="path to a key = value config file")

    p_ver = sub.add_parser("verify", help="run the randomized bracket-axiom checks")
    p_ver.add_argument("--model", default="all", help="model name or 'all'")
    p_ver.add_argument("--trials", type=int, default=20)
    p_ver.add_argument("--seed", type=int, default=0)

    p_dec = sub.add_parser("decay", help="fit the mechanical-energy decay rate")
    p_dec.add_argument("--config", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "simulate":
            return cmd_simulate(load_config(args.config))
        if args.command == "verify":
            return cmd_verify(args.model, args.trials, args.seed)
        if args.command == "decay":
            return cmd_decay(load_config(args.config))
        raise ValueError(f"unknown command {args.command!r}")
    except (DivergenceError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
