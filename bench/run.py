"""affine2f benchmark: one workload run, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: subcritical-batched, sample-based-per-path, cli-roundtrip
(see bench/README.md). Load model: one client in a closed loop, one
process, BLAS pinned to one thread, CLI children run one at a time.

With --trace 0 the run measures the end-to-end metrics with no tracing
installed. With --trace 1 it gives the per-layer metrics: timing
wrappers around each module's public functions, plus isolated probes
for Philox throughput and CLI import time. Both modes check that the
outputs are correct; the last stdout line is the JSON result, and the
exit code is 1 when a correctness gate failed.

Runs from the root of a source checkout: the library is imported from
`src/`, nothing is installed. Standard library only; the workload and
probe processes it starts import numpy and affine2f.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

# as in workloads.NAMES; this file imports neither numpy nor the library
NAMES = ("subcritical-batched", "sample-based-per-path", "cli-roundtrip")
IMPORT_PROBES = 5
RUN_TIMEOUT_S = 170.0
# declared in BENCHMARK.json. Also printed: cmd_p50_s, which has no
# meaning of its own on the library workloads (a pass is one command
# there), and ops_failed_frac, which reads 0 on a healthy run and is
# carried by "attempted" and "failed".
END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "path_steps_per_s")
PRINTED_ONLY = ("cmd_p50_s", "ops_failed_frac")


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def timed_run(argv, env, timeout) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, check=False)
    return time.perf_counter() - t0, proc


def require_ok(proc, what: str) -> None:
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{what} failed with exit code {proc.returncode}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="affine2f benchmark")
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "affine2f", "__init__.py")):
        print(f"no affine2f sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = child_env()
    py = sys.executable
    work_base = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_base, exist_ok=True)
    tag = f"{args.workload}-{os.getpid()}"
    deadline = time.perf_counter() + RUN_TIMEOUT_S

    import_s = 0.0
    rng_rate = None
    if args.trace:
        # unmeasured: compiles bytecode and fills the file cache for the probes
        _, proc = timed_run([py, "-c", "import affine2f.cli"], env, 60)
        require_ok(proc, "importing affine2f from src/")
        imports = []
        for _ in range(IMPORT_PROBES):
            wall, proc = timed_run([py, "-c", "import affine2f.cli"], env, 60)
            require_ok(proc, "import probe")
            imports.append(wall)
        import_s = stats.median(imports)
        _, proc = timed_run([py, os.path.join(HERE, "probe.py"), "rng"], env, 60)
        require_ok(proc, "rng probe")
        rng_rate = json.loads(proc.stdout)["normals_per_s"]

    result_file = os.path.join(work_base, f"{tag}.json")
    try:
        # own session: on timeout the whole group goes, CLI children included
        proc = subprocess.Popen(
            [py, os.path.join(HERE, "measure.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work", os.path.join(work_base, tag),
             "--result", result_file, "--import-s", repr(import_s)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        try:
            _, err = proc.communicate(
                timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SystemExit("workload process timed out")
        if proc.returncode != 0:
            sys.stderr.write(err[-2000:])
            raise SystemExit(f"workload process failed with exit code {proc.returncode}")
        with open(result_file, encoding="utf-8") as fh:
            res = json.load(fh)
    finally:
        if os.path.exists(result_file):
            os.remove(result_file)
        shutil.rmtree(os.path.join(work_base, tag), ignore_errors=True)

    e2e = dict(res["end_to_end"])
    layers = dict(res["layers"])
    if args.trace:
        layers["rng.normals_per_s"] = {"value": rng_rate, "unit": "1/s", "n": 1}
        layers["cli.import_s"]["n"] = IMPORT_PROBES

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("fingerprint " + json.dumps(res["fingerprint"], sort_keys=True))
    shown = layers if args.trace else e2e
    for name in sorted(shown) if args.trace else END_TO_END + PRINTED_ONLY:
        m = shown[name]
        extra = f"  median {m['p50']:.6g}" if "p50" in m else ""
        if "tail" in m:
            extra += f"  p{m['tail_p']:g} {m['tail']:.6g}"
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']:6s} n={m['n']}{extra}")
    print(f"correct {res['correct']}  attempted {res['attempted']}  failed {res['failed']}")
    for problem in res["problems"]:
        print(f"  FAILED CHECK: {problem}")
    keep = layers if args.trace else {k: e2e[k] for k in END_TO_END}
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in keep.items()},
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
