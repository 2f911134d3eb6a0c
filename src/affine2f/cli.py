"""Command-line front end.

Subcommands wire config files and stored paths to the library:
simulate, estimate, moments, diffstats, mc-verify and limit-sample.
Every command is a pure function of (config, seed, flags); reruns
reproduce each output file byte for byte. Exit codes: 0 success,
2 config problem, 3 violated model hypotheses (the library raised
HypothesisError), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import (
    RunConfig,
    check_seed,
    load_config,
    serialize_config,
)
from .diffusion_stats import estimate_diffusion
from .errors import Affine2FError, ConfigError, HypothesisError
from .estimators import (
    clse_approx,
    clse_continuous,
    clse_discrete_transformed,
    gn_inverse,
)
from .experiments import ExperimentPlan, run_experiment
from .limit_laws import limit_draws
from .model import Regime, classify_regime
from .moments import stationary_moments, transient_moments
from .persist import draws_text, read_path_grid, write_path_grid, write_text
from .rng import RngStream
from .simulate import simulate_path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESES = 3
EXIT_NUMERICAL = 4


def _effective_config(args) -> RunConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:  # moments takes no seed
        cfg = replace(cfg, experiment=replace(cfg.experiment,
                                              base_seed=check_seed(args.seed)))
    if args.out is not None:
        cfg = replace(cfg, output=replace(cfg.output, directory=args.out))
    return cfg


def _prepare_out(directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    return directory


def _publish(directory: str, name: str, text: str) -> int:
    """Write text to directory/name, echo it and name the file.

    The directory is made only now, once text exists, so a failed
    command leaves no trace.
    """
    out = os.path.join(_prepare_out(directory), name)
    write_text(out, text)
    print(text, end="")
    print(f"wrote {out}")
    return EXIT_OK


def _sidecar_text(cfg: RunConfig, command: str, replication: int,
                  n_points: int, seed_record: str) -> str:
    lines = [
        "[provenance]",
        f"tool = affine2f {__version__}",
        f"command = {command}",
        f"replication = {replication}",
        f"seed = {seed_record}",
        f"grid_points = {n_points}",
        "",
    ]
    return "\n".join(lines) + serialize_config(cfg)


def cmd_simulate(args) -> int:
    cfg = _effective_config(args)
    spec, exp = cfg.spec, cfg.experiment
    ext = {"text": "txt", "csv": "csv"}
    for r in range(exp.replications):
        path = simulate_path(spec, exp.T, exp.dt, exp.scheme,
                             RngStream(exp.base_seed, r))
        # made only once a path exists, so a refused start leaves no trace
        out = _prepare_out(cfg.output.directory)
        for fmt in cfg.output.formats:
            fname = os.path.join(out, "path_%03d.%s" % (r, ext[fmt]))
            write_path_grid(path, fname, fmt)
            print(f"wrote {fname}")
        meta = os.path.join(out, "path_%03d.meta" % r)
        write_text(meta, _sidecar_text(cfg, "simulate", r, len(path),
                                       path.seed_record))
        print(f"wrote {meta}")
    return EXIT_OK


def _parse_method(raw: str):
    if raw == "continuous":
        return "continuous", None
    name, colon, num = raw.partition(":")
    if colon and name in ("discrete", "approx"):
        try:
            stride = int(num, 10)
        except ValueError:
            raise ConfigError(
                f"estimator stride must be an integer, got {num!r}"
            ) from None
        if stride < 1:
            raise ConfigError(f"estimator stride must be >= 1, got {stride}")
        return name, stride
    raise ConfigError(
        "estimator must be continuous, discrete:n or approx:n, "
        f"got {raw!r}"
    )


def _estimate_text(est, te=None) -> str:
    lines = [f"source = {est.source}"]
    if est.n is not None:
        lines.append("sampling_frequency = %.17g" % est.n)
    lines.append("theta_hat = "
                 + " ".join("%.17g" % v for v in est.theta_hat))
    if te is not None:
        lines.append("transformed = " + " ".join(
            "%.17g" % v for v in (te.c, te.d, te.delta, te.epsilon, te.zeta)))
    if est.conds is not None:
        lines.append("cond_y_block = %.17g" % est.conds[0])
        lines.append("cond_x_block = %.17g" % est.conds[1])
    return "\n".join(lines) + "\n"


def cmd_estimate(args) -> int:
    method, stride = _parse_method(args.method)
    path = read_path_grid(args.path_file)
    if method == "continuous":
        est, te = clse_continuous(path), None
    else:
        te = clse_discrete_transformed(path, stride=stride)
        est = gn_inverse(te) if method == "discrete" else clse_approx(te)
    return _publish(args.out, "estimate.txt", _estimate_text(est, te))


def cmd_moments(args) -> int:
    cfg = _effective_config(args)
    if args.kmax < 0 or args.lmax < 0:
        raise ConfigError("--kmax and --lmax must be nonnegative")
    if args.when == "stationary":
        table = stationary_moments(cfg.spec, args.kmax, args.lmax)
    else:
        try:
            t = float(args.when)
        except ValueError:
            raise ConfigError(
                f"moment time must be 'stationary' or a number, got {args.when!r}"
            ) from None
        if not (math.isfinite(t) and t >= 0.0):
            raise ConfigError(
                f"moment time must be finite and nonnegative, got {t}")
        table = transient_moments(cfg.spec, t, args.kmax, args.lmax)
    return _publish(cfg.output.directory, "moments.txt",
                    table.to_text())


def cmd_diffstats(args) -> int:
    path = read_path_grid(args.path_file)
    return _publish(args.out, "diffstats.txt",
                    estimate_diffusion(path).to_text())


def cmd_mc_verify(args) -> int:
    cfg = _effective_config(args)
    spec, exp = cfg.spec, cfg.experiment
    if exp.replications < 2:
        # the scorecard's summary statistics need two replications
        raise ConfigError("experiment.replications: mc-verify needs at "
                          f"least 2, got {exp.replications}")
    plan = ExperimentPlan(spec=spec, T=exp.T, dt=exp.dt,
                          replications=exp.replications,
                          base_seed=exp.base_seed, scheme=exp.scheme)
    if args.reference_draws < 1:
        raise ConfigError("--reference-draws must be at least 1")
    report = run_experiment(plan, n_reference=args.reference_draws)
    return _publish(cfg.output.directory, "mc_verify.txt",
                    report.to_text() + "\n")


def cmd_limit_sample(args) -> int:
    cfg = _effective_config(args)
    spec, exp = cfg.spec, cfg.experiment
    if args.draws < 1:
        raise ConfigError("--draws must be at least 1")
    regime = classify_regime(spec.drift)
    draws, redraws = limit_draws(spec, args.draws, exp.dt, exp.base_seed, 0)
    text = draws_text(draws, f"{regime.value} limit draws")
    if regime is not Regime.SUBCRITICAL:
        # sample-based laws state their redraws, as mc-verify reports do
        text = f"# reference_redraws = {redraws}\n" + text
    out = os.path.join(_prepare_out(cfg.output.directory), "limit_draws.txt")
    write_text(out, text)
    print(f"wrote {out} ({args.draws} draws)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # every command accepts only the flags it reads
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", metavar="FILE", required=True,
                            help="run configuration file")
    configured.add_argument("--out", metavar="DIR",
                            help="override the configured output directory")
    seeded = argparse.ArgumentParser(add_help=False, parents=[configured])
    seeded.add_argument("--seed", type=int, metavar="U64",
                        help="override the configured base seed")
    stored = argparse.ArgumentParser(add_help=False)
    stored.add_argument("path_file")
    stored.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: the current one)")

    parser = argparse.ArgumentParser(
        prog="affine2f",
        description="simulation and drift inference for a two-factor "
                    "affine diffusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[seeded],
                       help="write replicated trajectories plus sidecars")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", parents=[stored],
                       help="drift estimates from a stored path")
    p.add_argument("--method", default="continuous",
                   help="continuous, discrete:n or approx:n (n = stride)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("moments", parents=[configured],
                       help="moment table at a fixed time or at stationarity")
    p.add_argument("when", help="a time t >= 0 or the word 'stationary'")
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--lmax", type=int, default=2)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("diffstats", parents=[stored],
                       help="diffusion statistics from a stored path")
    p.set_defaults(func=cmd_diffstats)

    p = sub.add_parser("mc-verify", parents=[seeded],
                       help="replicated limit-law scorecard")
    p.add_argument("--reference-draws", type=int, default=1000)
    p.set_defaults(func=cmd_mc_verify)

    p = sub.add_parser("limit-sample", parents=[seeded],
                       help="draws from the matching limit distribution")
    p.add_argument("--draws", type=int, default=100)
    p.set_defaults(func=cmd_limit_sample)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESES
    except (Affine2FError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
