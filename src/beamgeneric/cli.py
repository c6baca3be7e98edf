"""Command-line front end: simulate, verify, decay.

Config files are flat ``key = value`` text with ``#`` comments.  Exit codes:
0 success, 1 validation problem (bad config, unknown model, failed checks),
2 runtime divergence or domain error during integration.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import typing
from dataclasses import dataclass

from .catalog import ALL_MODEL_IDS, ModelId, ModelParams, build_model, default_initial_state
from .engine import (
    IntegratorConfig,
    decay_rate,
    integrate,
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
    dt: float = 1e-3
    t_end: float = 10.0
    record_every: int = 10
    mode: int = 1
    amplitude: float = 0.1
    output: str = "diagnostics.csv"
    params: ModelParams = dataclasses.field(default_factory=ModelParams)


_PARAM_KEYS = tuple(f.name for f in dataclasses.fields(ModelParams))

#: every config key, with the type its value is parsed as: the run's own
#: keys, then the model constants
_KEY_TYPES = {
    **{key: kind for key, kind in typing.get_type_hints(RunConfig).items() if key != "params"},
    **{key: float for key in _PARAM_KEYS},
}


def parse_config_text(text: str) -> RunConfig:
    """Parse ``key = value`` lines; unknown keys are rejected by name."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    unknown = sorted(set(raw) - set(_KEY_TYPES))
    if unknown:
        raise ValueError("unknown config key(s): " + ", ".join(unknown))
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
    cfg = IntegratorConfig(dt=config.dt, t_end=config.t_end, record_every=config.record_every)
    return model, z0, cfg


CSV_HEADER = "t,energy,entropy,mech_energy,res_LdS,res_MdE,theta_min"


def write_csv(path: str, records):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fields = (r.t, r.energy, r.entropy, r.mech_energy, r.res_l_ds, r.res_m_de, r.theta_min)
            fh.write(",".join("%.17g" % value for value in fields) + "\n")


def cmd_simulate(config: RunConfig, out=None) -> int:
    out = sys.stdout if out is None else out
    model, z0, cfg = _setup_run(config)
    records = integrate(model, z0, cfg)
    write_csv(config.output, records)
    print(f"{model.id} wrote {len(records)} records to {config.output}", file=out)
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


def cmd_decay(config: RunConfig, out=None) -> int:
    out = sys.stdout if out is None else out
    model, z0, cfg = _setup_run(config)
    if not model.damped:
        print(f"warning: {model.id} is undamped; expecting a rate near zero", file=out)
    records = integrate(model, z0, cfg)
    rate = decay_rate(records)
    window_rates = windowed_decay_rates(records)
    negative = sum(1 for r in window_rates if r < 0.0)
    confidence = negative / len(window_rates) if window_rates else 0.0
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
