"""Probes run in their own fresh interpreter, outside the workload process.

    python3 bench/probe.py setup --workload NAME --seed N --work DIR
        imports the library and builds one pass's inputs (specs, plans,
        streams, CLI configs); run.py times the whole process from outside.
    python3 bench/probe.py rng
        Philox standard_normal throughput at the engine's 8192 block;
        prints {"normals_per_s": ...}.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

BLOCK = 8192  # time_block of euler_paths_per_stream
RNG_PROBE_SEED = 6  # even: never a measured pass seed


def setup(name: str, seed: int, work: str) -> None:
    import workloads
    from affine2f.rng import RngStream

    base = workloads.pass_seed(seed, 0)
    if name == workloads.CliRoundtrip.name:
        from affine2f import cli, config  # noqa: F401  (the CLI's own import)

        try:
            w = workloads.CliRoundtrip(work)
            config.load_config(w.sub_ini)
            config.load_config(w.crit_ini)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return
    streams = []
    for plan, _ in workloads.LIBRARY[name].jobs(base):
        streams.extend(RngStream(plan.base_seed, r) for r in range(plan.replications))


def rng_normals_per_s(rounds: int = 7, blocks: int = 200) -> float:
    from affine2f.rng import RngStream

    gen = RngStream(RNG_PROBE_SEED, 0).generator(0)
    for _ in range(blocks):
        gen.standard_normal(BLOCK)
    rates = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(blocks):
            gen.standard_normal(BLOCK)
        rates.append(blocks * BLOCK / (time.perf_counter() - t0))
    rates.sort()
    return rates[len(rates) // 2]


def main(argv) -> int:
    if argv[:1] == ["rng"]:
        print(json.dumps({"normals_per_s": rng_normals_per_s()}))
        return 0
    if argv[:1] == ["setup"] and len(argv) == 7:
        opts = dict(zip(argv[1::2], argv[2::2]))
        setup(opts["--workload"], int(opts["--seed"]), opts["--work"])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
