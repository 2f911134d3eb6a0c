"""Run configuration files: strict INI parsing with lossless round-trip.

[model] holds the nine constants and the initial law, [experiment] the
horizon, grid, replication count, seed and scheme, [output] the target
directory and formats. Unknown sections or keys, and numbers that are
not finite, are fatal. Floats are
written back at 17 significant digits, so parse -> serialize -> parse
is the identity map.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .errors import ConfigError
from .model import CONSTANTS, InitialLaw, ModelSpec, make_spec
from .simulate import SCHEMES

_MODEL_KEYS = CONSTANTS + ("init_kind", "init_y0", "init_x0",
                           "init_burn_in")
_EXPERIMENT_KEYS = ("T", "dt", "replications", "base_seed", "scheme")
_OUTPUT_KEYS = ("directory", "formats")

FORMATS = ("text", "csv")
SEED_LIMIT = 2**64


@dataclass(frozen=True)
class ExperimentConfig:
    T: float
    dt: float
    replications: int
    base_seed: int
    scheme: str


@dataclass(frozen=True)
class OutputConfig:
    directory: str
    formats: tuple


@dataclass(frozen=True)
class RunConfig:
    spec: ModelSpec
    experiment: ExperimentConfig
    output: OutputConfig


def _reader() -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys are case-sensitive ("T" must stay "T")
    return cp


def _float_of(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"{section}.{key}: could not parse {raw!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: {raw!r} is not a finite number")
    return value


def _int_of(section: str, key: str, raw: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise ConfigError(
            f"{section}.{key}: could not parse {raw!r} as an integer"
        ) from None


def check_seed(value: int) -> int:
    if not 0 <= value < SEED_LIMIT:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {value}")
    return int(value)


def _reject_unknown(section: str, present, allowed) -> None:
    unknown = [k for k in present if k not in allowed]
    if unknown:
        raise ConfigError(
            f"[{section}] has unknown key(s): " + ", ".join(sorted(unknown))
        )


def _build_spec(sec) -> ModelSpec:
    _reject_unknown("model", sec, _MODEL_KEYS)
    missing = [k for k in CONSTANTS if k not in sec]
    if missing:
        raise ConfigError("[model] is missing key(s): " + ", ".join(missing))
    vals = {k: _float_of("model", k, sec[k]) for k in CONSTANTS}
    init_kw = {
        "kind": sec.get("init_kind", "point"),
        "y0": _float_of("model", "init_y0", sec.get("init_y0", "0")),
        "x0": _float_of("model", "init_x0", sec.get("init_x0", "0")),
    }
    if "init_burn_in" in sec:
        init_kw["burn_in"] = _float_of("model", "init_burn_in",
                                       sec["init_burn_in"])
    try:
        return make_spec(init=InitialLaw(**init_kw), **vals)
    except ValueError as exc:
        # constructor messages already name the offending field
        raise ConfigError(f"model: {exc}") from exc


def _build_experiment(sec) -> ExperimentConfig:
    _reject_unknown("experiment", sec, _EXPERIMENT_KEYS)
    missing = [k for k in ("T", "dt", "replications", "base_seed")
               if k not in sec]
    if missing:
        raise ConfigError("[experiment] is missing key(s): "
                          + ", ".join(missing))
    T = _float_of("experiment", "T", sec["T"])
    dt = _float_of("experiment", "dt", sec["dt"])
    if not T > 0.0 or not dt > 0.0:
        raise ConfigError("experiment: T and dt must be positive")
    if dt > T:
        raise ConfigError("experiment: dt must not exceed T")
    replications = _int_of("experiment", "replications", sec["replications"])
    if replications < 1:
        raise ConfigError("experiment.replications: must be at least 1")
    seed = _int_of("experiment", "base_seed", sec["base_seed"])
    try:
        check_seed(seed)
    except ConfigError as exc:
        raise ConfigError(f"experiment.base_seed: {exc}") from None
    scheme = sec.get("scheme", SCHEMES[0])
    if scheme not in SCHEMES:
        raise ConfigError(
            f"experiment.scheme: must be one of {SCHEMES}, got {scheme!r}"
        )
    return ExperimentConfig(T, dt, replications, seed, scheme)


def _build_output(sec) -> OutputConfig:
    _reject_unknown("output", sec, _OUTPUT_KEYS)
    directory = sec.get("directory", "runs")
    if not directory:
        raise ConfigError("output.directory: must not be empty")
    raw = sec.get("formats", "text")
    formats = tuple(f.strip() for f in raw.split(",") if f.strip())
    if not formats:
        raise ConfigError("output.formats: at least one format is required")
    for f in formats:
        if f not in FORMATS:
            raise ConfigError(
                f"output.formats: must be drawn from {FORMATS}, got {f!r}"
            )
    if len(set(formats)) != len(formats):
        raise ConfigError("output.formats: duplicate entries")
    return OutputConfig(directory, formats)


def parse_config(text: str) -> RunConfig:
    cp = _reader()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if cp.defaults():
        raise ConfigError("a DEFAULT section is not allowed")
    known = ("model", "experiment", "output")
    for name in cp.sections():
        if name not in known:
            raise ConfigError(f"unknown section [{name}]")
    for name in ("model", "experiment"):
        if name not in cp:
            raise ConfigError(f"missing required section [{name}]")
    spec = _build_spec(cp["model"])
    experiment = _build_experiment(cp["experiment"])
    output = _build_output(cp["output"] if "output" in cp else {})
    return RunConfig(spec, experiment, output)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


def _g17(v: float) -> str:
    return "%.17g" % v


def serialize_config(cfg: RunConfig) -> str:
    """Write the config back out with every default made explicit."""
    spec, exp, out = cfg.spec, cfg.experiment, cfg.output
    lines = ["[model]"]
    lines += [f"{k} = {_g17(getattr(spec, k))}" for k in CONSTANTS]
    lines.append(f"init_kind = {spec.init.kind}")
    lines.append(f"init_y0 = {_g17(spec.init.y0)}")
    lines.append(f"init_x0 = {_g17(spec.init.x0)}")
    if spec.init.burn_in is not None:
        lines.append(f"init_burn_in = {_g17(spec.init.burn_in)}")
    lines += [
        "",
        "[experiment]",
        f"T = {_g17(exp.T)}",
        f"dt = {_g17(exp.dt)}",
        f"replications = {exp.replications}",
        f"base_seed = {exp.base_seed}",
        f"scheme = {exp.scheme}",
        "",
        "[output]",
        f"directory = {out.directory}",
        "formats = " + ",".join(out.formats),
    ]
    return "\n".join(lines) + "\n"
