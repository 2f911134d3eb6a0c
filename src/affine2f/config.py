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
import numbers
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields

from .errors import ConfigError
from .model import CONSTANTS, InitialLaw, ModelSpec, make_spec
from .simulate import SCHEMES

FORMATS = ("text", "csv")
SEED_LIMIT = 2**64


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's horizon, grid, replications, seed and scheme, each checked
    here: 0 < dt <= T, replications an integer >= 1, base_seed an integer
    in [0, 2**64) and scheme in SCHEMES."""

    T: float
    dt: float
    replications: int
    base_seed: int
    scheme: str = SCHEMES[0]

    def __post_init__(self):
        if not self.T > 0.0 or not self.dt > 0.0:
            raise ValueError("T and dt must be positive")
        if self.dt > self.T:
            raise ValueError("dt must not exceed T")
        for name in ("replications", "base_seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not 0 <= self.base_seed < SEED_LIMIT:
            raise ValueError("base_seed must be an unsigned 64-bit integer, "
                             f"got {self.base_seed}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")


@dataclass(frozen=True)
class OutputConfig:
    """Where a run writes and in which formats; checks that directory is
    not empty and that formats holds one or more of FORMATS, none twice."""

    directory: str = "runs"
    formats: tuple = ("text",)

    def __post_init__(self):
        if not self.directory:
            raise ValueError("directory must not be empty")
        if not self.formats:
            raise ValueError("formats must name at least one format")
        for f in self.formats:
            if f not in FORMATS:
                raise ValueError(f"formats must be drawn from {FORMATS}, got {f!r}")
        if len(set(self.formats)) != len(self.formats):
            raise ValueError("formats has duplicate entries")


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


def _check_keys(section: str, sec, allowed, required=()) -> None:
    unknown = [k for k in sec if k not in allowed]
    if unknown:
        raise ConfigError(
            f"[{section}] has unknown key(s): " + ", ".join(sorted(unknown))
        )
    missing = [k for k in required if k not in sec]
    if missing:
        raise ConfigError(f"[{section}] is missing key(s): " + ", ".join(missing))


@contextmanager
def as_config_error(where: str):
    """Re-raise a record's own ValueError as a ConfigError that names
    where its value came from (a section or a command-line flag)."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build_spec(sec) -> ModelSpec:
    _check_keys("model", sec, CONSTANTS + _keys(InitialLaw, "init_"), CONSTANTS)
    vals = {k: _float_of("model", k, sec[k]) for k in CONSTANTS}
    # only the keys present: the law fills in, or refuses, the others
    init_kw = {f.name: sec[k] if f.name == "kind" else _float_of("model", k, sec[k])
               for f in fields(InitialLaw) if (k := "init_" + f.name) in sec}
    with as_config_error("model"):
        return make_spec(init=InitialLaw(**init_kw), **vals)


def _build_experiment(sec) -> ExperimentConfig:
    _check_keys("experiment", sec, _keys(ExperimentConfig),
                [f.name for f in fields(ExperimentConfig) if f.default is MISSING])
    kw = dict(sec)
    for key, number_of in (("T", _float_of), ("dt", _float_of),
                           ("replications", _int_of), ("base_seed", _int_of)):
        kw[key] = number_of("experiment", key, sec[key])
    with as_config_error("experiment"):
        return ExperimentConfig(**kw)


def _build_output(sec) -> OutputConfig:
    _check_keys("output", sec, _keys(OutputConfig))
    kw = dict(sec)
    if "formats" in kw:
        kw["formats"] = tuple(f.strip() for f in kw["formats"].split(",")
                              if f.strip())
    with as_config_error("output"):
        return OutputConfig(**kw)


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
