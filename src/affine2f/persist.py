"""File writers and readers for trajectories and plain-text records.

All writers pin the newline to "\n" and print floats at 17 significant
digits; a rerun with the same inputs therefore reproduces every output
file byte for byte.

read_path_grid reads the header line by line and hands the rows after it
to numpy in one np.loadtxt call on the open file, so it holds no copy of
the text, no list of lines and no list of rows: only the (n, 2) array.
A body numpy refuses, or one that holds a value that is not finite, is
read again whole and split into lines (_rows_by_line), which raises the
ConfigError that names the line at fault.
"""

from __future__ import annotations

import math
from itertools import chain

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
    row = "%.17g" + sep + "%.17g"
    lines.extend(row % yx for yx in zip(path.y.tolist(), path.x.tolist()))
    return "\n".join(lines) + "\n"


def write_path_grid(path: PathGrid, file_path, fmt: str = "text") -> None:
    write_text(file_path, path_grid_text(path, fmt))


def read_path_grid(file_path) -> PathGrid:
    """Parse a file written by write_path_grid, either separator.

    The header is every line up to the first that does not start with
    "#". After it, blank lines are skipped, a "#" line is a bad row, and
    the separator is a comma if the first row holds one, else whitespace.
    """
    try:
        with open(file_path, "r", encoding="utf-8") as fh:
            t0, dt, seed, line = _header(fh, file_path)
            while line and not line.strip():
                line = fh.readline()
            sep = "," if "," in line else None
            yx = None
            if line:
                try:
                    yx = np.loadtxt(chain([line], fh), delimiter=sep,
                                    comments=None, ndmin=2)
                except ValueError:  # refused: the line loop names the line
                    pass
        if yx is None or yx.shape[1] != 2 or not np.isfinite(yx).all():
            yx = _rows_by_line(file_path, sep)
    except OSError as exc:
        raise ConfigError(f"cannot read path file {file_path}: {exc}") from exc
    try:
        return PathGrid(t0, dt, yx[:, 0], yx[:, 1], seed_record=seed)
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"{file_path}: {exc}") from exc


def _header(fh, file_path):
    """(t0, dt, seed record, first line after the header) of an open file."""
    line = fh.readline()
    if line.rstrip("\n") != PATH_MAGIC:
        raise ConfigError(f"{file_path}: not a path file (bad first line)")
    meta = {}
    while line.startswith("#"):
        key, eq, val = line[1:].partition("=")
        if eq:
            meta[key.strip()] = val.strip()
        line = fh.readline()
    if "t0" not in meta or "dt" not in meta:
        raise ConfigError(f"{file_path}: missing t0/dt header lines")
    try:
        t0, dt = _finite(meta["t0"]), _finite(meta["dt"])
    except ValueError as exc:
        raise ConfigError(f"{file_path}: t0/dt header: {exc}") from None
    return t0, dt, meta.get("seed", ""), line


def _rows_by_line(file_path, sep) -> np.ndarray:
    """The rows of a body np.loadtxt refused, from the whole text again.

    Raises the ConfigError that names the first line at fault. A body
    with no line at fault (a number such as 1_0, which Python's float
    reads and numpy's parser does not) comes back as its rows.
    """
    with open(file_path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    idx = next((i for i, ln in enumerate(lines) if not ln.startswith("#")),
               len(lines))
    rows = []
    for no, ln in enumerate(lines[idx:], idx + 1):
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
    return np.asarray(rows, dtype=float)


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
