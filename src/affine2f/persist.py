"""File writers and readers for trajectories and plain-text records.

All writers pin the newline to "\n" and print floats at 17 significant
digits; a rerun with the same inputs therefore reproduces every output
file byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .simulate import PathGrid

PATH_MAGIC = "# affine2f path v1"


def write_text(file_path, text: str) -> None:
    with open(file_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def path_grid_text(path: PathGrid, fmt: str = "text") -> str:
    if fmt not in ("text", "csv"):
        raise ConfigError(f"unknown path format {fmt!r}")
    sep = " " if fmt == "text" else ","
    lines = [
        PATH_MAGIC,
        "# t0 = %.17g" % path.t0,
        "# dt = %.17g" % path.dt,
        f"# seed = {path.seed_record}",
        f"# columns: y{sep}x",
    ]
    lines.extend(
        "%.17g%s%.17g" % (yi, sep, xi) for yi, xi in zip(path.y, path.x)
    )
    return "\n".join(lines) + "\n"


def write_path_grid(path: PathGrid, file_path, fmt: str = "text") -> None:
    write_text(file_path, path_grid_text(path, fmt))


def read_path_grid(file_path) -> PathGrid:
    """Parse a file written by write_path_grid, either separator."""
    try:
        with open(file_path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read path file {file_path}: {exc}") from exc
    if not lines or lines[0] != PATH_MAGIC:
        raise ConfigError(f"{file_path}: not a path file (bad first line)")
    meta = {}
    idx = 0
    while idx < len(lines) and lines[idx].startswith("#"):
        header = lines[idx][1:]
        if "=" in header:
            key, _, val = header.partition("=")
            meta[key.strip()] = val.strip()
        idx += 1
    body = lines[idx:]
    if "t0" not in meta or "dt" not in meta:
        raise ConfigError(f"{file_path}: missing t0/dt header lines")
    try:
        t0, dt = _finite(meta["t0"]), _finite(meta["dt"])
    except ValueError as exc:
        raise ConfigError(f"{file_path}: t0/dt header: {exc}") from None
    first = next((ln for ln in body if ln.strip()), "")
    sep = "," if "," in first else None
    rows = []
    for no, ln in enumerate(body, idx + 1):
        if not ln.strip():
            continue
        parts = ln.split(sep)
        if len(parts) != 2:
            raise ConfigError(
                f"{file_path}: line {no}: expected two columns, got {ln!r}"
            )
        try:
            rows.append([_finite(parts[0]), _finite(parts[1])])
        except ValueError as exc:
            raise ConfigError(f"{file_path}: line {no}: {exc}") from None
    arr = np.asarray(rows, dtype=float)
    try:
        return PathGrid(t0, dt, arr[:, 0], arr[:, 1],
                        seed_record=meta.get("seed", ""))
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"{file_path}: {exc}") from exc


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"value {raw!r} is not finite")
    return value


def draws_text(draws: np.ndarray, label: str) -> str:
    """Space-separated table of limit draws, one row per sample."""
    draws = np.asarray(draws, dtype=float)
    lines = [f"# {label}", "# columns: a b alpha beta gamma"]
    lines.extend(" ".join("%.17g" % v for v in row) for row in draws)
    return "\n".join(lines) + "\n"
