"""Command-line front end.

Subcommands: gen-matrix, train, simulate, sweep, report.
Exit codes are a stable contract: 0 success/converged, 2 usage error
(including a graph that cannot be built and a size too large to
allocate), 3 max-rounds reached, 4 divergence (consensus or estimator
training; every eigenvalue solve terminates), 5 I/O failure. Config
files may set ``parallel`` to true or false; any other value exits 2,
and either is ignored.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import matrix_core, simulator
from .comm_graph import GraphConstructionError
from .local_estimator import (
    TrainConfig,
    TrainingDivergedError,
    init_mlp,
    save_params,
    synthesize_training_set,
    train,
)
from .seeding import child_seed
from .simulator import (
    ConfigError,
    EstimatorConfig,
    SimConfig,
    error_floor,
    export_csv,
    load_config,
    run_many,
    run_simulation,
    save_snapshot,
    snapshot,
    summary_from_snapshot,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MAX_ROUNDS = 3
EXIT_DIVERGED = 4
EXIT_IO = 5


def _parse_spectrum(spec: str, n: int, seed: int):
    """Either a path to a whitespace-separated list of values, or a
    'lo:hi' range drawn uniformly with a seed-derived stream."""
    if os.path.exists(spec):
        with matrix_core.naming(f"spectrum file {spec}"):
            with open(spec) as f:
                values = np.array([float(t) for t in f.read().split()])
            if values.shape != (n,):
                raise ValueError(f"holds {values.size} values, need {n}")
        return np.sort(values)
    try:
        return np.array(simulator._resolve_spectrum(spec, n, seed))
    except ConfigError:
        raise
    except ValueError:
        raise ValueError(f"--spectrum {spec!r} is neither an existing file "
                         "nor a 'lo:hi' range") from None


def cmd_gen_matrix(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    spectrum = _parse_spectrum(args.spectrum, args.n, args.seed)
    A = matrix_core.generate_spd(args.n, spectrum, child_seed(args.seed, "matrix"))
    matrix_core.save_matrix(A, args.out)
    print(" ".join(f"{v:.17g}" for v in spectrum))
    return EXIT_OK


def _comma_list(flag: str, text: str, convert, what: str) -> list:
    """The comma-separated items of ``text``, each read by ``convert``;
    an empty ``text`` has none. An empty or unreadable item is a
    ValueError naming ``flag``."""
    try:
        return [convert(t) for t in text.split(",")] if text else []
    except ValueError:
        raise ValueError(f"{flag} {text!r} is not comma-separated {what}") from None


def cmd_train(args) -> int:
    hidden = tuple(_comma_list("--hidden", args.hidden, int, "whole numbers"))
    tset = synthesize_training_set(args.k, args.samples, (args.lo, args.hi),
                                   child_seed(args.seed, "mlp-data"))
    p0 = init_mlp(args.k, hidden, child_seed(args.seed, "mlp-init"))
    params, losses = train(p0, tset, TrainConfig(args.lr, args.epochs))
    save_params(params, args.out)
    print(f"trained k={args.k} hidden={hidden} epochs={args.epochs} "
          f"final_loss={losses[-1]:.6g}")
    return EXIT_OK


def _default_csv_path(config_path: str) -> str:
    root, _ = os.path.splitext(config_path)
    return root + ".csv"


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    trace = run_simulation(cfg)
    out = args.out or _default_csv_path(args.config)
    export_csv(trace, out)
    snap = snapshot(trace)  # one record: written, then printed as report prints it
    if args.snapshot:
        save_snapshot(snap, args.snapshot)
    sys.stdout.write(summary_from_snapshot(snap))
    if trace.stop_reason == "max_rounds":
        return EXIT_MAX_ROUNDS
    if trace.stop_reason == "diverged":
        return EXIT_DIVERGED
    return EXIT_OK


def _apply_sweep_value(cfg: SimConfig, param: str, value: float, seed: int) -> SimConfig:
    # replace() re-runs each dataclass's checks on the new value
    if param == "p":
        return replace(cfg, failure_p=value, seed=seed)
    if param == "gamma":
        return replace(cfg, mode=replace(cfg.mode, gamma=value), seed=seed)
    if param == "sigma":
        return replace(cfg, estimator=replace(cfg.estimator, sigma=value), seed=seed)
    raise ValueError(f"unknown sweep parameter {param!r}")


def _sweep_row(param: str, value: float, group) -> str:
    """One aggregate CSV row over the traces of one value's trials."""
    rounds = np.array([t.rounds_used for t in group])
    errors = np.array([t.final_consensus_error for t in group])
    gammas = [error_floor(t) for t in group if len(t.max_est_error) >= 10]
    mean_gamma = float(np.mean(gammas)) if gammas else float("nan")
    return (f"{param},{value:.17g},{len(group)},"
            f"{rounds.mean():.17g},{rounds.min()},{rounds.max()},"
            f"{errors.mean():.17g},{errors.min():.17g},{errors.max():.17g},"
            f"{mean_gamma:.17g}")


def cmd_sweep(args) -> int:
    """One aggregate row per value over its trials, all run by one
    ``run_many``, so stages no trial changes are built once per sweep."""
    base = load_config(args.config)
    values = _comma_list("--values", args.values, float, "numbers")
    if not values:
        raise ValueError("no sweep values given")
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    # A parameter the config never reads would give identical rows.
    if args.param == "gamma" and base.mode.kind != "damped":
        raise ConfigError(f"--param gamma is read only by mode: damped, "
                          f"not mode: {base.mode.kind}")
    if args.param == "sigma" and base.estimator.kind != "noisy_oracle":
        raise ConfigError(f"--param sigma is read only by estimator: noisy_oracle, "
                          f"not estimator: {base.estimator.kind}")

    # Build every trial's config first, so a bad value fails before any trial runs.
    traces = run_many([_apply_sweep_value(base, args.param, value,
                                          child_seed(base.seed, "sweep", vi, t))
                       for vi, value in enumerate(values) for t in range(args.trials)])
    lines = ["param,value,trials,mean_rounds,min_rounds,max_rounds,"
             "mean_final_error,min_final_error,max_final_error,mean_gamma_hat"]
    for value in values:
        lines.append(_sweep_row(args.param, value, [next(traces) for _ in range(args.trials)]))
    text = "\n".join(lines) + "\n"
    if args.out:
        with matrix_core.replacing(args.out) as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_report(args) -> int:
    snap = simulator.load_snapshot(args.snapshot)
    with matrix_core.naming(args.snapshot):
        summary = summary_from_snapshot(snap)
    sys.stdout.write(summary)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopeig",
        description="Distributed cooperative eigenvalue estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-matrix", help="generate an SPD matrix with a known spectrum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spectrum", required=True,
                   help="values file, or 'lo:hi' uniform range")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_matrix)

    p = sub.add_parser("train", help="train a local estimator network")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=EstimatorConfig.samples)
    p.add_argument("--lo", type=float, default=EstimatorConfig.spectrum_range[0])
    p.add_argument("--hi", type=float, default=EstimatorConfig.spectrum_range[1])
    p.add_argument("--hidden", default=",".join(map(str, EstimatorConfig.hidden)),
                   help="comma-separated hidden sizes")
    p.add_argument("--lr", type=float, default=EstimatorConfig.learning_rate)
    p.add_argument("--epochs", type=int, default=EstimatorConfig.epochs)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", help="run one simulation from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="trace CSV path (default: next to config)")
    p.add_argument("--snapshot", help="also write a re-runnable snapshot")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="sweep one parameter over repeated trials")
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True, choices=["p", "gamma", "sigma"])
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--out", help="aggregate CSV path (default: stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="print the summary for a saved snapshot")
    p.add_argument("--snapshot", required=True)
    p.set_defaults(func=cmd_report)
    return parser


# Built once per process: parse_args keeps no state between calls, so
# in-process drivers pay for the parser tree once.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, GraphConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy's message names the bytes it asked for
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingDivergedError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    entry()
