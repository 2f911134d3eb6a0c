"""In-memory span tracer and the timing wrappers the traced run installs.

The wrappers time calls into the public functions of each module under
`src/affine2f/` from outside: `install` replaces every reference to a
wrapped function in the loaded `affine2f.*` modules (the package binds
them into each other's namespaces with `from .x import f`) and
`uninstall` puts the originals back. No source file is edited.

Spans are kept in a list and written once, when the benchmark ends.
Layer names are module names; a span called "simulate.path" belongs to
the `simulate` layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np
from affine2f.estimators import COND_LIMIT

ROOT = "bench.pass"  # root span of one workload pass; its self time is unaccounted


class Tracer:
    """Nested spans (name, start, end, parent index) plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError("spans must close in the order they opened")
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] += amount

    def write(self, file_path) -> None:
        with open(file_path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = _union((max(lo, start), min(hi, end))
                         for lo, hi in children[idx] if hi > start and lo < end)
        out.append((end - start) - covered)
    return out


def busy(spans, name: str) -> float:
    """Wall time during which at least one span called `name` was open."""
    return _union((s, e) for n, s, e, _ in spans if n == name)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_self_times(spans) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for (name, *_), own in zip(spans, self_times(spans)):
        out[layer_of(name)] += own
    return dict(out)


# ---------------------------------------------------------------- wrappers


def _n_steps(T: float, dt: float) -> int:
    # the simulators' grid rule: floor(T/dt) steps after the start point
    return int(math.floor(T / dt + 1e-9))


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_calls(key):
    def hook(tr, fn, args, kwargs, out):
        tr.add(key + ".calls")
    return hook


def _path_steps(tr, fn, args, kwargs, out):
    tr.add("simulate.path.calls")
    tr.add("simulate.path.steps", len(out) - 1)


def _ensemble_steps(tr, fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    tr.add("simulate.ensemble.steps", a["n_paths"] * _n_steps(a["T"], a["dt"]))


def _chunk_steps(tr, item):
    _, y, x = item
    tr.add("simulate.per_stream.steps", y.shape[0] * (y.shape[1] - 1))
    tr.add("simulate.per_stream.bytes_recorded", y.nbytes + x.nbytes)


def _functional_bytes(tr, fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    tr.add("estimators.functionals.bytes_in", a["y"].nbytes + a["x"].nbytes)


def _solve_rows(tr, fn, args, kwargs, out):
    _, cond1, cond2 = out
    ok = (np.asarray(cond1) <= COND_LIMIT) & (np.asarray(cond2) <= COND_LIMIT)
    tr.add("estimators.solve.rows", ok.size)
    tr.add("estimators.cond_rejected", int(ok.size - ok.sum()))


def _critical_redraws(tr, fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    tr.add("limit_laws.critical_batch.draws", a["n_draws"])
    tr.add("limit_laws.critical_batch.redraws", out[1])


def _included(tr, fn, args, kwargs, out):
    tr.add("experiments.included", out.included)
    tr.add("experiments.replications", out.plan.replications)


def _write_bytes(tr, fn, args, kwargs, out):
    tr.add("persist.write.bytes", len(_bound(fn, args, kwargs)["text"].encode()))


def _read_bytes(tr, fn, args, kwargs, out):
    tr.add("persist.read.bytes", os.path.getsize(_bound(fn, args, kwargs)["file_path"]))


# (module, attribute, span name, hook); "Class.method" patches the class
WRAPPED = (
    ("rng", "RngStream.generator", "rng.generator", _count_calls("rng.generator")),
    ("simulate", "simulate_path", "simulate.path", _path_steps),
    ("simulate", "simulate_ensemble", "simulate.ensemble", _ensemble_steps),
    ("simulate", "euler_paths_per_stream", "simulate.per_stream", _chunk_steps),
    ("estimators", "functionals_from_arrays", "estimators.functionals", _functional_bytes),
    ("estimators", "functionals_from_path", "estimators.functionals", None),
    ("estimators", "solve_continuous", "estimators.solve", _solve_rows),
    ("estimators", "clse_continuous", "estimators.continuous", None),
    ("estimators", "clse_discrete_transformed", "estimators.discrete", None),
    ("estimators", "gn_inverse", "estimators.discrete", None),
    ("estimators", "clse_approx", "estimators.discrete", None),
    ("limit_laws", "critical_limit_batch", "limit_laws.critical_batch", _critical_redraws),
    ("limit_laws", "supercritical_limit_sample", "limit_laws.supercritical_sample",
     _count_calls("limit_laws.supercritical_sample")),
    ("limit_laws", "subcritical_limit", "limit_laws.subcritical", None),
    ("moments", "stationary_moments", "moments.stationary", None),
    ("moments", "transient_moments", "moments.transient", None),
    ("experiments", "run_experiment", "experiments.run", _included),
    ("diffusion_stats", "estimate_diffusion", "diffusion_stats.estimate", None),
    ("persist", "write_path_grid", "persist.write", None),
    ("persist", "write_text", "persist.write", _write_bytes),
    ("persist", "read_path_grid", "persist.read", _read_bytes),
    ("config", "load_config", "config.load", None),
    ("cli", "main", "cli.main", None),
)


def _wrap(tr: Tracer, fn, name: str, hook):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tr.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tr.close(idx)
                if hook is not None:
                    hook(tr, item)
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tr.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.close(idx)
        if hook is not None:
            hook(tr, fn, args, kwargs, out)
        return out
    return wrapper


class Installed:
    """Wrappers in place; `uninstall` restores every replaced reference."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def install(tr: Tracer) -> Installed:
    done = Installed()
    for mod_name, attr, span_name, hook in WRAPPED:
        module = importlib.import_module("affine2f." + mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            done.replace(cls, meth, _wrap(tr, getattr(cls, meth), span_name, hook))
            continue
        orig = getattr(module, attr)
        new = _wrap(tr, orig, span_name, hook)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name != "affine2f" and not loaded_name.startswith("affine2f."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is orig:
                    done.replace(loaded, key, new)
    return done
