"""File writers and readers for trajectories and plain-text records.

All writers pin the newline to "\n" and print floats at 17 significant
digits; a rerun with the same inputs therefore reproduces every output
file byte for byte.

A path file is read in one pass and written in one pass. write_path_grid
writes the header, then streams one row per grid point into the open
file, so it never holds the whole text. read_path_grid is one loop over
the open file's own lines, which end at "\n", "\r\n" or "\r": a blank
line is skipped, and the fields of a row are str.split of the line on
the separator (a comma if the first row holds one, else whitespace).
The values go into two contiguous columns; no copy of the text, no list
of lines and no list of rows is kept. A refusal names the file and,
for a row at fault, the line by that count, header lines included.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain

import numpy as np

from .errors import ConfigError
from .simulate import PathGrid

PATH_MAGIC = "# affine2f path v1"


def write_text(file_path, text: str) -> None:
    with open(file_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_path_grid(path: PathGrid, file_path, fmt: str = "text") -> None:
    if fmt not in ("text", "csv"):
        raise ConfigError(f"unknown path format {fmt!r}")
    sep = " " if fmt == "text" else ","
    row = "%.17g" + sep + "%.17g\n"
    with open(file_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("%s\n# t0 = %.17g\n# dt = %.17g\n# seed = %s\n# columns: y%sx\n"
                 % (PATH_MAGIC, path.t0, path.dt, path.seed_record, sep))
        fh.writelines(row % yx for yx in zip(path.y.tolist(), path.x.tolist()))


def read_path_grid(file_path) -> PathGrid:
    """Parse a file written by write_path_grid, either separator.

    The header is every line up to the first that does not start with
    "#". After it, blank lines are skipped, a "#" line is a bad row, and
    the separator is a comma if the first row holds one, else whitespace.
    """
    y, x = array("d"), array("d")
    try:
        with open(file_path, "r", encoding="utf-8") as fh:
            t0, dt, seed, line, no = _header(fh, file_path)
            for no, ln in enumerate(chain([line], fh), no):
                ln = ln.rstrip("\n")
                if not ln.strip():
                    continue
                if not y:  # the first row sets the separator
                    sep = "," if "," in ln else None
                parts = ln.split(sep)
                if len(parts) != 2:
                    raise ConfigError(
                        f"{file_path}: line {no}: expected two columns, got {ln!r}"
                    )
                try:
                    y.append(_finite(parts[0]))
                    x.append(_finite(parts[1]))
                except ValueError as exc:
                    raise ConfigError(f"{file_path}: line {no}: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read path file {file_path}: {exc}") from exc
    try:
        return PathGrid(t0, dt, np.frombuffer(y), np.frombuffer(x), seed_record=seed)
    except ValueError as exc:
        raise ConfigError(f"{file_path}: {exc}") from exc


def _header(fh, file_path):
    """(t0, dt, seed record, first line after the header, its number)."""
    line = fh.readline()
    if line.rstrip("\n") != PATH_MAGIC:
        raise ConfigError(f"{file_path}: not a path file (bad first line)")
    meta, no = {}, 1
    while line.startswith("#"):
        key, eq, val = line[1:].partition("=")
        if eq:
            meta[key.strip()] = val.strip()
        line, no = fh.readline(), no + 1
    if "t0" not in meta or "dt" not in meta:
        raise ConfigError(f"{file_path}: missing t0/dt header lines")
    try:
        t0, dt = _finite(meta["t0"]), _finite(meta["dt"])
    except ValueError as exc:
        raise ConfigError(f"{file_path}: t0/dt header: {exc}") from None
    return t0, dt, meta.get("seed", ""), line, no


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
