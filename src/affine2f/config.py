"""Run configuration files: strict INI parsing with lossless round-trip.

[model] holds the nine constants and the initial law, [experiment] the
horizon, grid, replication count, seed and scheme, [output] the target
directory and formats. A section's keys are its record's fields (the
law's prefixed init_), and a key left out takes the record's default.
Unknown sections or keys, and numbers that are not finite, are fatal.
Floats are written back at 17 significant digits, so parse -> serialize
-> parse is the identity map.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, fields

from .errors import ConfigError
from .model import CONSTANTS, InitialLaw, ModelSpec, make_spec
from .simulate import SCHEMES

FORMATS = ("text", "csv")
SEED_LIMIT = 2**64


@dataclass(frozen=True)
class ExperimentConfig:
    T: float
    dt: float
    replications: int
    base_seed: int
    scheme: str = SCHEMES[0]


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "runs"
    formats: tuple = ("text",)


@dataclass(frozen=True)
class RunConfig:
    spec: ModelSpec
    experiment: ExperimentConfig
    output: OutputConfig


def _keys(record, prefix: str = "") -> tuple:
    """The config keys of record's fields, in field order."""
    return tuple(prefix + f.name for f in fields(record))


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


def _check_keys(section: str, sec, allowed, required=()) -> None:
    unknown = [k for k in sec if k not in allowed]
    if unknown:
        raise ConfigError(
            f"[{section}] has unknown key(s): " + ", ".join(sorted(unknown))
        )
    missing = [k for k in required if k not in sec]
    if missing:
        raise ConfigError(f"[{section}] is missing key(s): " + ", ".join(missing))


def _build_spec(sec) -> ModelSpec:
    _check_keys("model", sec, CONSTANTS + _keys(InitialLaw, "init_"), CONSTANTS)
    vals = {k: _float_of("model", k, sec[k]) for k in CONSTANTS}
    # only the keys present: the law fills in, or refuses, the others
    init_kw = {f.name: sec[k] if f.name == "kind" else _float_of("model", k, sec[k])
               for f in fields(InitialLaw) if (k := "init_" + f.name) in sec}
    try:
        return make_spec(init=InitialLaw(**init_kw), **vals)
    except ValueError as exc:
        # constructor messages already name the offending field
        raise ConfigError(f"model: {exc}") from exc


def _build_experiment(sec) -> ExperimentConfig:
    _check_keys("experiment", sec, _keys(ExperimentConfig),
                [f.name for f in fields(ExperimentConfig) if f.default is MISSING])
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
    exp = ExperimentConfig(**dict(sec, T=T, dt=dt, replications=replications,
                                  base_seed=seed))
    if exp.scheme not in SCHEMES:
        raise ConfigError(
            f"experiment.scheme: must be one of {SCHEMES}, got {exp.scheme!r}"
        )
    return exp


def _build_output(sec) -> OutputConfig:
    _check_keys("output", sec, _keys(OutputConfig))
    kw = dict(sec)
    if "formats" in kw:
        kw["formats"] = tuple(f.strip() for f in kw["formats"].split(",")
                              if f.strip())
    out = OutputConfig(**kw)
    if not out.directory:
        raise ConfigError("output.directory: must not be empty")
    if not out.formats:
        raise ConfigError("output.formats: at least one format is required")
    for f in out.formats:
        if f not in FORMATS:
            raise ConfigError(
                f"output.formats: must be drawn from {FORMATS}, got {f!r}"
            )
    if len(set(out.formats)) != len(out.formats):
        raise ConfigError("output.formats: duplicate entries")
    return out


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


def _text(v) -> str:
    if isinstance(v, tuple):
        return ",".join(v)
    return str(v) if isinstance(v, (str, int)) else "%.17g" % v


def _lines(record, prefix: str = "") -> list:
    """key = value for each set field of record, in field order."""
    return [f"{prefix}{f.name} = {_text(v)}" for f in fields(record)
            if (v := getattr(record, f.name)) is not None]


def serialize_config(cfg: RunConfig) -> str:
    """Write the config back out: each record's set fields in field order,
    defaults included; an init field left unset (None) is left out."""
    spec = cfg.spec
    lines = (["[model]"] + [f"{k} = {_text(getattr(spec, k))}" for k in CONSTANTS]
             + _lines(spec.init, "init_") + ["", "[experiment]"]
             + _lines(cfg.experiment) + ["", "[output]"] + _lines(cfg.output))
    return "\n".join(lines) + "\n"
