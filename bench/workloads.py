"""Workload definitions: inputs built from a seed, one pass, its checks.

A pass is the unit of work the benchmark times. For the two library
workloads it is one `run_experiment` call per plan; for `cli-roundtrip`
it is 20 subprocess invocations of `python -m affine2f`, one at a time.

Seed discipline: measured pass k of a run started with `--seed n` uses
base seed 2*(1000*n + k) + 1, always odd. Warm-ups and golden runs use
even seeds, so no warm-up ever shares a stream with a measured pass.
Every pass and every replay builds its own RngStream objects; a reused
RngStream continues its stream instead of restarting it.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import time

import numpy as np

from affine2f import config, estimators, experiments, limit_laws, moments, persist
from affine2f import diffusion_stats, simulate
from affine2f.errors import Affine2FError
from affine2f.model import InitialLaw, make_spec
from affine2f.rng import RngStream

WARMUP_SEED = 2
GOLDEN_SEED = 4
# tolerance of every numeric comparison: loose enough for reordered
# floating-point sums (~1e-14 relative, amplified by the Gram condition),
# tight enough that a single changed random draw fails
RTOL = 1e-7

# criterion 06 of the acceptance suite
SUB_SPEC = make_spec(12.0, 8.0, 0.5, 0.2, 7.0, 1.5, 0.6, 0.6, 0.2,
                     init=InitialLaw("point", y0=1.5, x0=1.6 / 56))
# criterion 07
CRIT_SPEC = make_spec(1.0, 0.0, 0.5, 0.0, 0.0, 0.5, 0.3, 0.4, 0.3,
                      init=InitialLaw("point", y0=1.0, x0=0.2))
# criterion 08
SUP_SPEC = make_spec(1.0, -0.5, 0.2, 0.0, -1.0, 0.5, 0.3, 0.4, 0.3,
                     init=InitialLaw("point", y0=1.0, x0=0.5))
SUPERCRITICAL_PROBE = 30.0  # supercritical_limit_sample's default horizon times |b|


def pass_seed(seed: int, k: int) -> int:
    return 2 * (1000 * seed + k) + 1


def n_steps(T: float, dt: float) -> int:
    return int(math.floor(T / dt + 1e-9))


def close(actual, expected) -> bool:
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    return a.shape == e.shape and bool(
        np.all(np.abs(a - e) <= RTOL * (1.0 + np.abs(e))))


class PassResult:
    """What one pass did: operations attempted and failed, steps, latencies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.steps = 0
        self.cmd_s: list[float] = []
        self.cmd_cpu_s: list[float] = []
        self.cmd_rss_mb: list[float] = []
        self.problems: list[str] = []
        self.output = None


# ------------------------------------------------------------ library runs


class LibraryWorkload:
    """A list of (plan, run_experiment keyword arguments) per base seed."""

    name = ""

    def jobs(self, base_seed: int, golden: bool = False):
        raise NotImplementedError

    @staticmethod
    def job_steps(plan, kwargs) -> int:
        steps = plan.replications * n_steps(plan.T, plan.dt)
        n_ref = kwargs.get("n_reference", 0)
        if plan.regime.name == "CRITICAL":
            steps += n_ref * n_steps(1.0, kwargs.get("reference_dt") or plan.dt)
        elif plan.regime.name == "SUPERCRITICAL":
            probe = SUPERCRITICAL_PROBE / abs(plan.spec.b)
            steps += n_ref * n_steps(probe, kwargs.get("reference_dt") or plan.dt)
        return steps

    def run_pass(self, base_seed: int) -> PassResult:
        res = PassResult()
        reports = []
        for plan, kwargs in self.jobs(base_seed):
            n_ref = kwargs.get("n_reference", 0) if plan.regime.name != "SUBCRITICAL" else 0
            res.attempted += plan.replications + n_ref
            res.steps += self.job_steps(plan, kwargs)
            try:
                rep = experiments.run_experiment(plan, **kwargs)
            except (Affine2FError, ArithmeticError, ValueError, np.linalg.LinAlgError) as exc:
                res.failed += plan.replications + n_ref
                res.problems.append(f"{plan.regime.name.lower()} plan raised {exc!r}")
                reports.append(None)
                continue
            res.failed += rep.excluded
            reports.append(rep)
        res.output = reports
        return res

    def check(self, base_seed: int, res: PassResult, replay: bool) -> list[str]:
        """Structural checks on every pass; scalar replays when asked."""
        problems = list(res.problems)
        for (plan, kwargs), rep in zip(self.jobs(base_seed), res.output):
            if rep is None:
                continue
            tag = plan.regime.name.lower()
            ids = np.concatenate([rep.replication_ids, rep.excluded_ids])
            if sorted(ids.tolist()) != list(range(plan.replications)):
                problems.append(f"{tag}: included and excluded ids do not cover the rows")
            if rep.scaled_errors.shape != (rep.included, 5) or not np.isfinite(
                    rep.scaled_errors).all():
                problems.append(f"{tag}: scaled errors are not a finite (included, 5) array")
            if replay:
                problems.extend(self.replay(plan, kwargs, rep))
        return problems

    @staticmethod
    def replay(plan, kwargs, rep) -> list[str]:
        """Rows 0 and R-1 through simulate_path + clse_continuous, fresh streams."""
        problems = []
        truth = np.array([plan.spec.a, plan.spec.b, plan.spec.alpha,
                          plan.spec.beta, plan.spec.gamma])
        tag = plan.regime.name.lower()
        for r in sorted({0, plan.replications - 1}):
            where = np.flatnonzero(rep.replication_ids == r)
            if where.size == 0:
                continue
            path = simulate.simulate_path(plan.spec, plan.T, plan.dt, plan.scheme,
                                          RngStream(plan.base_seed, r))
            theta = estimators.clse_continuous(path).theta_hat
            if not close(rep.scaled_errors[where[0]], (theta - truth) * plan.scales()):
                problems.append(f"{tag}: row {r} differs from its scalar replay")
        if plan.regime.name == "SUPERCRITICAL" and rep.reference_draws is not None:
            ref_dt = kwargs.get("reference_dt") or plan.dt
            _, draw = limit_laws.supercritical_limit_sample(
                plan.spec, None, ref_dt,
                RngStream(plan.base_seed, plan.replications))
            if not close(rep.reference_draws[0], draw):
                problems.append(f"{tag}: reference draw 0 differs from its replay")
        return problems

    def golden_record(self, seed: int = GOLDEN_SEED) -> dict:
        """The reduced plans' rows, ids and reference draws at `seed`."""
        out = {}
        for plan, kwargs in self.jobs(seed, golden=True):
            rep = experiments.run_experiment(plan, **kwargs)
            out[plan.regime.name.lower()] = {
                "scaled_errors": rep.scaled_errors.tolist(),
                "replication_ids": rep.replication_ids.tolist(),
                "excluded_ids": rep.excluded_ids.tolist(),
                "reference_draws": (None if rep.reference_draws is None
                                    else rep.reference_draws.tolist()),
            }
        return out

    def golden_check(self, recorded: dict) -> list[str]:
        return compare_golden(self.golden_record(), recorded)

    def warm_up(self) -> None:
        for plan, kwargs in self.jobs(WARMUP_SEED, golden=True):
            experiments.run_experiment(plan, **kwargs)


def compare_golden(got: dict, recorded: dict) -> list[str]:
    problems = []
    if sorted(got) != sorted(recorded):
        return [f"golden plans {sorted(got)} != recorded {sorted(recorded)}"]
    for tag, want in recorded.items():
        have = got[tag]
        for key in ("replication_ids", "excluded_ids"):
            if list(have[key]) != list(want[key]):
                problems.append(f"golden {tag}: {key} changed")
        for key in ("scaled_errors", "reference_draws"):
            if (have[key] is None) != (want[key] is None) or (
                    want[key] is not None and not close(have[key], want[key])):
                problems.append(f"golden {tag}: {key} differ from the recorded values")
    return problems


class SubcriticalBatched(LibraryWorkload):
    name = "subcritical-batched"

    def jobs(self, base_seed, golden=False):
        R, T = (6, 2.0) if golden else (64, 50.0)
        plan = experiments.ExperimentPlan(spec=SUB_SPEC, T=T, dt=1e-3, replications=R,
                                          base_seed=base_seed, scheme="full_euler")
        return [(plan, {"engine": "batched"})]


class SampleBasedPerPath(LibraryWorkload):
    name = "sample-based-per-path"

    def jobs(self, base_seed, golden=False):
        if golden:
            crit = dict(R=4, T=5.0, n_ref=8)
            sup = dict(R=4, T=3.0, n_ref=3)
        else:
            crit = dict(R=24, T=20.0, n_ref=150)
            sup = dict(R=20, T=5.0, n_ref=20)
        out = []
        for spec, p in ((CRIT_SPEC, crit), (SUP_SPEC, sup)):
            plan = experiments.ExperimentPlan(spec=spec, T=p["T"], dt=0.01,
                                              replications=p["R"], base_seed=base_seed)
            out.append((plan, {"n_reference": p["n_ref"]}))
        return out


# ----------------------------------------------------------- CLI roundtrip

SUB_INI = """\
[model]
a = 1.0
b = 1.0
alpha = 0.5
beta = 0.3
gamma = 0.6
sigma1 = 0.5
sigma2 = 0.3
sigma3 = 0.4
rho = 0.3
init_kind = point
init_y0 = 3.0
init_x0 = 0.2

[experiment]
T = 20.0
dt = 0.002
replications = 2
base_seed = 1

[output]
directory = {out}
formats = text,csv
"""

CRIT_INI = """\
[model]
a = 1.0
b = 0.0
alpha = 0.5
beta = 0.0
gamma = 0.0
sigma1 = 0.5
sigma2 = 0.3
sigma3 = 0.4
rho = 0.3
init_kind = point
init_y0 = 1.0
init_x0 = 0.2

[experiment]
T = 20.0
dt = 0.002
replications = 1
base_seed = 1

[output]
directory = {out}
formats = text,csv
"""


class CliRoundtrip:
    """20 commands: simulate, estimate and diffstats on the written
    files, transient and stationary moments, limit-sample."""

    name = "cli-roundtrip"

    def __init__(self, work_dir: str):
        self.work = work_dir
        os.makedirs(work_dir, exist_ok=True)
        self.sub_ini = os.path.join(work_dir, "sub.ini")
        self.crit_ini = os.path.join(work_dir, "crit.ini")
        persist.write_text(self.sub_ini, SUB_INI.format(out=os.path.join(work_dir, "unused")))
        persist.write_text(self.crit_ini, CRIT_INI.format(out=os.path.join(work_dir, "unused")))

    def commands(self, base_seed: int, tag: str) -> list[list[str]]:
        d = os.path.join(self.work, tag)
        s = str(base_seed)
        sub, crit = os.path.join(d, "sub"), os.path.join(d, "crit")
        p = {
            "s0t": os.path.join(sub, "path_000.txt"), "s0c": os.path.join(sub, "path_000.csv"),
            "s1t": os.path.join(sub, "path_001.txt"), "s1c": os.path.join(sub, "path_001.csv"),
            "c0t": os.path.join(crit, "path_000.txt"), "c0c": os.path.join(crit, "path_000.csv"),
        }

        def out(name):
            return ["--out", os.path.join(d, name)]

        return [
            ["simulate", "--config", self.sub_ini, "--seed", s, "--out", sub],
            ["simulate", "--config", self.crit_ini, "--seed", s, "--out", crit],
            ["estimate", p["s0t"], "--method", "continuous", *out("e01")],
            ["estimate", p["s0c"], "--method", "discrete:5", *out("e02")],
            ["estimate", p["s0t"], "--method", "approx:5", *out("e03")],
            ["estimate", p["s1c"], "--method", "continuous", *out("e04")],
            ["estimate", p["s1t"], "--method", "discrete:10", *out("e05")],
            ["estimate", p["s1c"], "--method", "approx:10", *out("e06")],
            ["estimate", p["c0t"], "--method", "continuous", *out("e07")],
            ["estimate", p["c0c"], "--method", "approx:5", *out("e08")],
            ["diffstats", p["s0t"], *out("d01")],
            ["diffstats", p["s1c"], *out("d02")],
            ["diffstats", p["c0t"], *out("d03")],
            ["moments", "0.5", "--config", self.sub_ini, *out("m01")],
            ["moments", "2.0", "--config", self.sub_ini, "--kmax", "3", "--lmax", "3", *out("m02")],
            ["moments", "stationary", "--config", self.sub_ini, *out("m03")],
            ["moments", "stationary", "--config", self.sub_ini, "--kmax", "3", "--lmax", "3",
             *out("m04")],
            ["limit-sample", "--config", self.sub_ini, "--draws", "500", "--seed", s, *out("l01")],
            ["limit-sample", "--config", self.crit_ini, "--draws", "200", "--seed", s, *out("l02")],
            ["moments", "1.0", "--config", self.crit_ini, *out("m05")],
        ]

    def steps(self) -> int:
        # simulated path steps: 2 + 1 paths of T/dt, 200 critical draws on [0, 1]
        return 3 * n_steps(20.0, 0.002) + 200 * n_steps(1.0, 0.002)

    def run_pass(self, base_seed: int, tag: str, timeout: float,
                 between=None) -> PassResult:
        """The commands in order; `between(i)` runs unmeasured after command i."""
        res = PassResult()
        res.steps = self.steps()
        for i, argv in enumerate(self.commands(base_seed, tag)):
            res.attempted += 1
            code, wall, cpu, rss, err = run_child(
                [sys.executable, "-m", "affine2f", *argv], timeout,
                os.path.join(self.work, "stderr.txt"))
            res.cmd_s.append(wall)
            res.cmd_cpu_s.append(cpu)
            res.cmd_rss_mb.append(rss)
            if code != 0:
                res.failed += 1
                res.problems.append(f"{argv[0]} exited {code}: {err.strip()[-300:]}")
            if between is not None:
                between(i)
        return res

    def replay_in_process(self, base_seed: int, tag: str) -> PassResult:
        """The same commands through affine2f.cli.main, stdout discarded."""
        import contextlib
        import io

        from affine2f import cli

        res = PassResult()
        res.steps = self.steps()
        for argv in self.commands(base_seed, tag):
            res.attempted += 1
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            res.cmd_s.append(time.perf_counter() - t0)
            if code != 0:
                res.failed += 1
                res.problems.append(f"in-process {argv[0]} returned {code}")
        return res

    def check(self, base_seed: int, tag: str) -> list[str]:
        """Every written output against the library on the same inputs."""
        problems = []
        d = os.path.join(self.work, tag)
        sub_cfg = config.load_config(self.sub_ini)
        crit_cfg = config.load_config(self.crit_ini)
        for cfg, folder, reps in ((sub_cfg, "sub", 2), (crit_cfg, "crit", 1)):
            exp = cfg.experiment
            for r in range(reps):
                want = simulate.simulate_path(cfg.spec, exp.T, exp.dt, exp.scheme,
                                              RngStream(base_seed, r))
                for ext in ("txt", "csv"):
                    f = os.path.join(d, folder, "path_%03d.%s" % (r, ext))
                    got = _read_or_none(f)
                    if got is None or not (np.array_equal(got.y, want.y)
                                           and np.array_equal(got.x, want.x)):
                        problems.append(f"{folder}/path_{r:03d}.{ext} is not the library path")
        for argv in self.commands(base_seed, tag):
            problems.extend(self._check_one(argv, sub_cfg, crit_cfg, base_seed))
        return problems

    def _check_one(self, argv, sub_cfg, crit_cfg, base_seed) -> list[str]:
        cmd, out_dir = argv[0], argv[argv.index("--out") + 1]
        if cmd == "estimate":
            text = _read_text(os.path.join(out_dir, "estimate.txt"))
            got = _field(text, "theta_hat")
            path = _read_or_none(argv[1])
            method = argv[argv.index("--method") + 1]
            if path is None or got is None:
                return [f"estimate {method} on {argv[1]}: missing output"]
            if method == "continuous":
                want = estimators.clse_continuous(path).theta_hat
            else:
                te = estimators.clse_discrete_transformed(path, int(method.split(":")[1]))
                est = estimators.gn_inverse(te) if method.startswith("discrete") \
                    else estimators.clse_approx(te)
                want = est.theta_hat
            return [] if close(got, want) else [f"estimate {method} on {argv[1]}: "
                                               "theta differs from the library"]
        if cmd == "diffstats":
            path = _read_or_none(argv[1])
            want = None if path is None else diffusion_stats.estimate_diffusion(path).to_text()
            got = _read_text(os.path.join(out_dir, "diffstats.txt"))
            return [] if got == want else [f"diffstats on {argv[1]} differs from the library"]
        if cmd == "moments":
            cfg = sub_cfg if argv[argv.index("--config") + 1] == self.sub_ini else crit_cfg
            kmax = int(argv[argv.index("--kmax") + 1]) if "--kmax" in argv else 2
            lmax = int(argv[argv.index("--lmax") + 1]) if "--lmax" in argv else 2
            when = argv[1]
            table = (moments.stationary_moments(cfg.spec, kmax, lmax) if when == "stationary"
                     else moments.transient_moments(cfg.spec, float(when), kmax, lmax))
            got = _read_text(os.path.join(out_dir, "moments.txt"))
            return [] if got == table.to_text() else [f"moments {when} differ from the library"]
        if cmd == "limit-sample":
            draws = int(argv[argv.index("--draws") + 1])
            text = _read_text(os.path.join(out_dir, "limit_draws.txt")) or ""
            rows = np.array([[float(v) for v in ln.split()] for ln in text.splitlines()
                             if ln and not ln.startswith("#")])
            if rows.shape != (draws, 5) or not np.isfinite(rows).all():
                return [f"limit-sample wrote {rows.shape} rows, wanted ({draws}, 5) finite"]
            if argv[argv.index("--config") + 1] == self.crit_ini:
                s = crit_cfg.spec
                want, _ = limit_laws.critical_limit_batch(
                    draws, s.a, s.alpha, s.sigma1, s.sigma2, s.rho,
                    crit_cfg.experiment.dt, RngStream(base_seed, 0))
                if not close(rows, want):
                    return ["critical limit-sample draws differ from the library"]
            return []
        return []

    def warm_up(self, timeout: float) -> None:
        """One unmeasured invocation: fills the file cache and bytecode."""
        subprocess.run([sys.executable, "-m", "affine2f", "moments", "0.5", "--config",
                        self.sub_ini, "--out", os.path.join(self.work, "warm")],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       timeout=timeout, check=False)


def run_child(argv, timeout: float, stderr_path: str):
    """Run argv to its end; (exit code, wall s, cpu s, max RSS MB, stderr).

    os.wait4 gives the rusage of this one child, so the CPU time and peak
    RSS exclude the benchmark's other children (probes, warm-up).
    """
    with open(stderr_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode(errors="replace")
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, text


def _read_text(file_path):
    try:
        with open(file_path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError:
        return None


def _read_or_none(file_path):
    try:
        return persist.read_path_grid(file_path)
    except Affine2FError:  # unreadable or malformed; the caller reports it
        return None


def _field(text, key):
    for line in (text or "").splitlines():
        name, _, value = line.partition(" = ")
        if name == key:
            return np.array([float(v) for v in value.split()])
    return None


LIBRARY = {w.name: w for w in (SubcriticalBatched(), SampleBasedPerPath())}
NAMES = (SubcriticalBatched.name, SampleBasedPerPath.name, CliRoundtrip.name)
