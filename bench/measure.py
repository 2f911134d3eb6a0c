"""Workload process: warm up, run timed passes, check them, trace on request.

Started by run.py, one process per workload run, with BLAS pinned to one
thread and `src/` of the checkout first on PYTHONPATH. Writes one JSON
result file; run.py prints it.

    python3 bench/measure.py --workload NAME --seed N --seconds S --trace 0|1 \
        --work DIR --result FILE [--import-s SECONDS]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import affine2f  # noqa: E402

import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

GOLDEN_FILE = os.path.join(HERE, "golden.json")
CMD_TIMEOUT_S = 60.0
SETUP_PROBES = 5  # fresh interpreters timed for setup_s in each run


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def fingerprint() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def metric(value, unit, n) -> dict:
    return {"value": float(value), "unit": unit, "n": int(n)}


def timing(samples, unit="s") -> dict:
    """The mean as the value, with the median, tail and count beside it.

    The host this benchmark was tuned on runs the same pass anywhere
    between 0.85 and 1.85 s, at contention levels that each last 5 to
    40 s. Which level a run happens to sit in moves its median and its
    best sample, while the mean integrates over all of them: over 200 s
    of passes, 20-30 s windows spread by 0.11-0.13 (IQR over median)
    for the mean, against 0.10-0.18 for the median and 0.29-0.34 for
    the minimum.
    """
    out = metric(sum(samples) / len(samples), unit, len(samples))
    out.update(stats.summarize(samples))
    return out


class Run:
    """Accumulates passes of one workload run."""

    def __init__(self):
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.steps: list[int] = []
        self.cmd_s: list[float] = []
        self.cmd_rss_mb: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, res, wall, cpu):
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.steps.append(res.steps)
        # a library pass is one command; a CLI pass holds one per invocation
        self.cmd_s.extend(res.cmd_s or [wall])
        self.cmd_rss_mb.extend(res.cmd_rss_mb)
        self.attempted += res.attempted
        self.failed += res.failed

    def end_to_end(self, peak_rss_mb, setup) -> dict:
        return {
            "setup_s": timing(setup),
            "wall_s": timing(self.walls),
            "cpu_s": timing(self.cpus),
            "peak_rss_mb": metric(peak_rss_mb, "MB", 1),
            "path_steps_per_s": metric(sum(self.steps) / sum(self.walls), "1/s",
                                       len(self.walls)),
            # printed only: see END_TO_END in run.py
            "cmd_p50_s": metric(stats.median(self.cmd_s), "s", len(self.cmd_s)),
            "ops_failed_frac": metric(self.failed / max(self.attempted, 1), "frac",
                                      self.attempted),
        }


def timed(fn, *args):
    cpu0, t0 = _cpu_s(), time.perf_counter()
    res = fn(*args)
    return res, time.perf_counter() - t0, _cpu_s() - cpu0


# ------------------------------------------------------------------ layers


def layer_metrics(tr, n_pass: int, wall_s: float, untraced_s: float,
                  import_s: float, n_imports: int) -> dict:
    """Per-pass layer figures from the spans and counters of n_pass passes."""
    spans, c = tr.spans, tr.counts

    def busy(name):
        return tracer.busy(spans, name) / n_pass

    def per(key):
        return c.get(key, 0.0) / n_pass

    def rate(steps_key, span):
        b = tracer.busy(spans, span)
        return c.get(steps_key, 0.0) / b if b > 0 else 0.0

    selfs = tracer.layer_self_times(spans)
    own = {k: v / n_pass for k, v in selfs.items()}
    draws = c.get("limit_laws.critical_batch.draws", 0.0)
    redraws = c.get("limit_laws.critical_batch.redraws", 0.0)
    reps = c.get("experiments.replications", 0.0)
    m = {
        "rng.generator.calls": (per("rng.generator.calls"), "count"),
        "rng.generator.busy_s": (busy("rng.generator"), "s"),
        "simulate.per_stream.busy_s": (busy("simulate.per_stream"), "s"),
        "simulate.per_stream.path_steps_per_s": (
            rate("simulate.per_stream.steps", "simulate.per_stream"), "1/s"),
        "simulate.per_stream.bytes_recorded": (per("simulate.per_stream.bytes_recorded"), "B"),
        "simulate.path.calls": (per("simulate.path.calls"), "count"),
        "simulate.path.busy_s": (busy("simulate.path"), "s"),
        "simulate.path.path_steps_per_s": (rate("simulate.path.steps", "simulate.path"), "1/s"),
        "simulate.ensemble.busy_s": (busy("simulate.ensemble"), "s"),
        "simulate.ensemble.path_steps_per_s": (
            rate("simulate.ensemble.steps", "simulate.ensemble"), "1/s"),
        "estimators.functionals.busy_s": (busy("estimators.functionals"), "s"),
        "estimators.functionals.bytes_in": (per("estimators.functionals.bytes_in"), "B"),
        "estimators.solve.busy_s": (busy("estimators.solve"), "s"),
        "estimators.solve.rows": (per("estimators.solve.rows"), "count"),
        "estimators.cond_rejected": (per("estimators.cond_rejected"), "count"),
        "estimators.discrete.busy_s": (busy("estimators.discrete"), "s"),
        "limit_laws.critical_batch.busy_s": (busy("limit_laws.critical_batch"), "s"),
        "limit_laws.critical_batch.redraws": (redraws / n_pass, "count"),
        "limit_laws.critical_batch.accept_frac": (
            (draws - redraws) / draws if draws else 0.0, "frac"),
        "limit_laws.supercritical_sample.calls": (
            per("limit_laws.supercritical_sample.calls"), "count"),
        "limit_laws.supercritical_sample.busy_s": (busy("limit_laws.supercritical_sample"), "s"),
        "limit_laws.subcritical.busy_s": (busy("limit_laws.subcritical"), "s"),
        "moments.stationary.busy_s": (busy("moments.stationary"), "s"),
        "moments.transient.busy_s": (busy("moments.transient"), "s"),
        "experiments.run.busy_s": (busy("experiments.run"), "s"),
        "experiments.included_frac": (
            c.get("experiments.included", 0.0) / reps if reps else 0.0, "frac"),
        "diffusion_stats.busy_s": (busy("diffusion_stats.estimate"), "s"),
        "persist.write.busy_s": (busy("persist.write"), "s"),
        "persist.write.bytes": (per("persist.write.bytes"), "B"),
        "persist.read.busy_s": (busy("persist.read"), "s"),
        "persist.read.bytes": (per("persist.read.bytes"), "B"),
        "config.load.busy_s": (busy("config.load"), "s"),
        "cli.import_s": (import_s, "s"),
    }
    for layer in ("rng", "simulate", "estimators", "limit_laws", "moments", "experiments",
                  "diffusion_stats", "persist", "config", "cli"):
        m[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
    imports = n_imports * import_s
    m.update({
        "trace.wall_s": (wall_s, "s"),
        "trace.untraced_wall_s": (untraced_s, "s"),
        "trace.overhead_frac": (wall_s / untraced_s - 1.0, "frac"),
        "trace.unaccounted_frac": (own.get("bench", 0.0) / wall_s, "frac"),
        "cli.import_share": (imports / wall_s, "frac"),
    })
    return {k: metric(v, unit, n_pass) for k, (v, unit) in m.items()}


# ---------------------------------------------------------------- run modes


def trace_file(args, name) -> str:
    # beside the per-run work directory, which is deleted at the end
    return os.path.join(os.path.dirname(os.path.abspath(args.work)),
                        f"trace-{name}-seed{args.seed}.jsonl")


class SetupProbes:
    """setup_s samples: fresh interpreters that import the library and build
    one pass's inputs, timed from outside. Spread across the run, between
    passes or commands, so that one slow stretch of the machine does not
    set them all."""

    def __init__(self, args, count: int = SETUP_PROBES):
        self.args = args
        self.count = count
        self.walls: list[float] = []

    def one(self) -> None:
        if len(self.walls) >= self.count:
            return
        i = len(self.walls)
        argv = [sys.executable, os.path.join(HERE, "probe.py"), "setup",
                "--workload", self.args.workload, "--seed", str(self.args.seed),
                "--work", os.path.join(self.args.work, f"setup{i}")]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CMD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode()[-1000:]}")
        self.walls.append(time.perf_counter() - t0)

    def finish(self) -> list[float]:
        while len(self.walls) < self.count:
            self.one()
        return self.walls


def run_library(w, args) -> tuple[Run, dict]:
    run = Run()
    traced = Run()
    tr = tracer.Tracer()
    probes = SetupProbes(args)
    w.warm_up()
    k = 0
    while True:
        seed = workloads.pass_seed(args.seed, k)
        trace_this = args.trace and k % 2 == 1
        if trace_this:
            installed = tracer.install(tr)
            root = tr.open(tracer.ROOT)
            try:
                res, wall, cpu = timed(w.run_pass, seed)
            finally:
                tr.close(root)
                installed.uninstall()
            traced.add(res, wall, cpu)
        else:
            res, wall, cpu = timed(w.run_pass, seed)
            run.add(res, wall, cpu)
        # replay rows through the scalar reference on each kind of pass once
        run.problems.extend(w.check(seed, res, replay=k < 2))
        probes.one()
        k += 1
        if sum(run.walls) + sum(traced.walls) >= args.seconds and (not args.trace or k >= 2):
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(GOLDEN_FILE, encoding="utf-8") as fh:
        run.problems.extend(w.golden_check(json.load(fh)[w.name]))
    layers = {}
    if args.trace:
        run.attempted += traced.attempted
        run.failed += traced.failed
        n = len(traced.walls)
        layers = layer_metrics(tr, n, sum(traced.walls) / n, sum(run.walls) / len(run.walls),
                               args.import_s, 0)
        tr.write(trace_file(args, w.name))
    return run, {"peak_rss_mb": peak, "layers": layers, "setup": probes.finish()}


def run_cli(args) -> tuple[Run, dict]:
    w = workloads.CliRoundtrip(args.work)
    run = Run()
    probes = SetupProbes(args)
    spacing = max(len(w.commands(0, "")) // probes.count, 1)

    def between(i):
        if i % spacing == spacing - 1:
            probes.one()

    w.warm_up(CMD_TIMEOUT_S)
    k = 0
    while True:
        seed = workloads.pass_seed(args.seed, k)
        tag = f"pass{k}"
        res = w.run_pass(seed, tag, CMD_TIMEOUT_S, between)
        # the pass's own time: its commands, not the probes between them
        run.add(res, sum(res.cmd_s), sum(res.cmd_cpu_s))
        run.problems.extend(res.problems)
        run.problems.extend(w.check(seed, tag))
        shutil.rmtree(os.path.join(args.work, tag), ignore_errors=True)
        k += 1
        if sum(run.walls) >= args.seconds or args.trace:
            break
    layers = {}
    if args.trace:
        seed = workloads.pass_seed(args.seed, k)
        tr = tracer.Tracer()
        installed = tracer.install(tr)
        root = tr.open(tracer.ROOT)
        try:
            res = w.replay_in_process(seed, "replay")
        finally:
            tr.close(root)
            installed.uninstall()
        run.problems.extend(res.problems)
        run.problems.extend(w.check(seed, "replay"))
        replay_s = tr.spans[root][2] - tr.spans[root][1]
        n_cmd = len(res.cmd_s)
        layers = layer_metrics(tr, 1, replay_s + n_cmd * args.import_s,
                               sum(run.walls) / len(run.walls), args.import_s, n_cmd)
        tr.write(trace_file(args, w.name))
    return run, {"peak_rss_mb": max(run.cmd_rss_mb), "layers": layers,
                 "setup": probes.finish()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--import-s", type=float, default=0.0)
    args = ap.parse_args(argv)

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(affine2f.__file__).startswith(src + os.sep):
        print(f"affine2f was imported from {affine2f.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    os.makedirs(args.work, exist_ok=True)
    try:
        if args.workload == workloads.CliRoundtrip.name:
            run, extra = run_cli(args)
        else:
            run, extra = run_library(workloads.LIBRARY[args.workload], args)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    result = {
        "correct": not run.problems,
        "problems": run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "end_to_end": run.end_to_end(extra["peak_rss_mb"], extra["setup"]),
        "layers": extra["layers"],
        "fingerprint": fingerprint(),
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
